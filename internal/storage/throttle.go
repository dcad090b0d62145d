package storage

import (
	"sync/atomic"
	"time"

	"repro/internal/counter"
	"repro/internal/trace"
)

// Throttled wraps a Backend with a per-operation latency, the seek and
// issue cost of a file system whose calls are slow next to memory and the
// interconnect — the regime in which the collective window pipeline's
// overlap of storage with exchange pays off (noncontig's -latency).
// Every operation pays Latency of busy time, accumulated across
// operations so that sub-resolution costs are not lost.
type Throttled struct {
	layer
	Latency time.Duration // per-operation seek/issue cost

	debt atomic.Int64 // accumulated nanoseconds not yet slept
}

// NewThrottled wraps b with the given per-operation latency.
func NewThrottled(b Backend, latency time.Duration) *Throttled {
	t := &Throttled{Latency: latency}
	t.layer = layer{Backend: b, ic: t}
	return t
}

func (t *Throttled) charge() {
	// Accumulate and sleep only when the debt is large enough for the
	// sleeper to be meaningful; this keeps many small operations honest
	// without millions of timer calls.
	d := t.debt.Add(int64(t.Latency))
	const quantum = int64(200 * time.Microsecond)
	if d >= quantum {
		if t.debt.CompareAndSwap(d, 0) {
			time.Sleep(time.Duration(d))
		}
	}
}

// intercept charges the op once: a transfer — plain, batch or view — and
// control traffic (register-view, epoch seal/commit/abort) pay Latency
// whatever they carry, which is what makes batching n runs into one call
// the win; Truncate and Sync are free.
func (t *Throttled) intercept(o op, next *layer) result {
	if o.kind != opTruncate && o.kind != opSync {
		t.charge()
	}
	return next.exec(o)
}

// AccessStats counts backend operations, bytes, and busy time.  Every
// data op is one read or write, whatever it carries — Reads/Writes
// approximate syscalls, and a preadv is one — and counts the bytes it
// moved: the n a plain ReadAt/WriteAt returned, all of a batch or view
// transfer that succeeded (both are all-or-nothing), none of one that
// failed.  The nanosecond totals sum over operations, so with concurrent
// accesses (the pipelined collective window loop) they can exceed wall
// time.
type AccessStats struct {
	Reads, Writes           int64
	BytesRead, BytesWritten int64
	ReadNs, WriteNs         int64
}

// Instrumented wraps a Backend with operation counting and timing, and,
// given a tracer (SetTracer), a span per op: the one storage observation
// interceptor.
type Instrumented struct {
	// st is the only store of the counters, written atomically, hence
	// first: 64-bit aligned everywhere (package counter).
	st AccessStats
	layer
	tr *trace.Tracer
}

// NewInstrumented wraps b with access counters.
func NewInstrumented(b Backend) *Instrumented {
	in := &Instrumented{}
	in.layer = layer{Backend: b, ic: in}
	return in
}

// intercept counts and times every data op, and records one span per op
// — a batch is one — carrying the bytes asked for, or the count a plain
// read or write or a send returned; control ops are not counted, and
// without a tracer they pass.
func (in *Instrumented) intercept(o op, next *layer) result {
	dir, ph := o.kind.dir(), tracedPhase[o.kind]
	if ph == "" || dir == dirNone && !in.tr.Enabled() {
		return next.exec(o)
	}
	size := o.size()
	sp := in.tr.Time(ph, o.off, size)
	res := next.exec(o)
	n := int64(res.n)
	var ns int64
	if o.kind == opRead || o.kind == opWrite || o.kind == opSend {
		ns = sp.EndBytes(n)
	} else {
		ns = sp.End()
	}
	if o.kind != opRead && o.kind != opWrite && res.err == nil {
		n = size
	}
	switch dir {
	case dirRead:
		atomic.AddInt64(&in.st.ReadNs, ns)
		atomic.AddInt64(&in.st.Reads, 1)
		atomic.AddInt64(&in.st.BytesRead, n)
	case dirWrite:
		atomic.AddInt64(&in.st.WriteNs, ns)
		atomic.AddInt64(&in.st.Writes, 1)
		atomic.AddInt64(&in.st.BytesWritten, n)
	}
	return res
}

// Stats returns a snapshot of the access counters.
func (in *Instrumented) Stats() AccessStats { return counter.Load(&in.st) }
