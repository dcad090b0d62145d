package storage

import (
	"fmt"
	"sync"
)

// ErrInjected is the error produced by a Faulty backend when a fault
// fires.  It is classified permanent: a Faulty fault repeats until Heal,
// so retrying cannot help.
var ErrInjected = fmt.Errorf("storage: injected fault: %w", ErrPermanent)

// faultArm is one direction's trigger state.  Count threshold and
// counter live under one mutex so arming, tripping, and re-arming are
// atomic with respect to each other — concurrent chaos tests re-arm
// while operations are in flight.
type faultArm struct {
	mu     sync.Mutex
	after  int64 // count trigger: the after-th next op (1-based) and later fail; 0 disarmed
	count  int64
	ranged bool // range trigger: ops overlapping [lo, hi) fail
	lo, hi int64
}

func (a *faultArm) armCount(n int64) {
	a.mu.Lock()
	a.count, a.after = 0, n
	a.mu.Unlock()
}

func (a *faultArm) armRange(lo, hi int64) {
	a.mu.Lock()
	a.ranged, a.lo, a.hi = true, lo, hi
	a.mu.Unlock()
}

func (a *faultArm) disarm() {
	a.mu.Lock()
	a.after, a.count, a.ranged = 0, 0, false
	a.mu.Unlock()
}

// trip reports whether an operation on [off, off+n) fires the fault.
func (a *faultArm) trip(off, n int64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ranged && off < a.hi && off+n > a.lo {
		return true
	}
	if a.after > 0 {
		a.count++
		return a.count >= a.after
	}
	return false
}

// Faulty wraps a Backend and fails operations on demand, for testing
// error propagation through the sieving and two-phase I/O paths: by
// operation count (the n-th next read/write and all later ones) or by
// file range (any access overlapping a byte range — which is how tests
// target one IOP's file domain in a collective).  For probabilistic,
// seeded injection see Chaos.
type Faulty struct {
	layer
	reads, writes faultArm
}

// NewFaulty wraps b with fault injection disabled.
func NewFaulty(b Backend) *Faulty {
	f := &Faulty{}
	f.layer = layer{Backend: b, ic: f}
	return f
}

// FailReads makes the n-th next read (1-based) and all later reads fail.
func (f *Faulty) FailReads(n int64) { f.reads.armCount(n) }

// FailWrites makes the n-th next write (1-based) and all later writes
// fail.
func (f *Faulty) FailWrites(n int64) { f.writes.armCount(n) }

// FailReadRange makes every read overlapping [lo, hi) fail.
func (f *Faulty) FailReadRange(lo, hi int64) { f.reads.armRange(lo, hi) }

// FailWriteRange makes every write overlapping [lo, hi) fail.
func (f *Faulty) FailWriteRange(lo, hi int64) { f.writes.armRange(lo, hi) }

// Heal disables fault injection.
func (f *Faulty) Heal() {
	f.reads.disarm()
	f.writes.disarm()
}

// intercept trips the arm of the op's direction on the op's span: the
// file range of a read, write or batch (a batch is one counted
// operation), the view-data range of a view transfer — FailReadRange
// over a view targets data bytes, since a view access has no single file
// offset.  Control ops pass.
func (f *Faulty) intercept(o op, next *layer) result {
	var arm *faultArm
	switch o.kind.dir() {
	case dirRead:
		arm = &f.reads
	case dirWrite:
		arm = &f.writes
	default:
		return next.exec(o)
	}
	if arm.trip(o.span()) {
		return result{err: ErrInjected}
	}
	return next.exec(o)
}
