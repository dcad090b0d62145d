package core

import (
	"fmt"
	"math"

	"repro/internal/mpi"
	"repro/internal/storage"
)

// Collective error agreement.  A storage fault on one IOP mid-collective
// must not strand its peers: an AP blocked in Recv on the read path would
// deadlock, and undrained tagCollData chunks on the write path would
// corrupt the next collective on the same file.  So after the IOP phase
// every rank votes its local outcome into an allreduce; if any rank
// failed, the lowest failing rank broadcasts its fault, every rank drains
// the in-flight collective traffic, and every rank returns the same
// rank-attributed CollectiveError — leaving mailboxes clean and the File
// usable for subsequent operations.

// Collective phases a fault can be attributed to.
const (
	// PhaseIOPSetup is the IOP's engine setup (the list-based engine
	// receiving and decoding the per-AP access lists).
	PhaseIOPSetup = "iop-setup"
	// PhaseIOPWindow is the IOP window loop over the file domain
	// (pre-reads, exchanges, write-backs).
	PhaseIOPWindow = "iop-window"
	// PhaseEpochSeal is the pre-commit seal round of the epoch protocol
	// (every rank verifying its staged writes on every server).
	PhaseEpochSeal = "epoch-seal"
	// PhaseEpochCommit is rank 0's commit fan-out of the epoch protocol.
	PhaseEpochCommit = "epoch-commit"
	phaseUnknown     = "unknown"
)

// CollectiveError is the agreed outcome of a failed collective access.
// After error agreement, every rank of the world returns a
// CollectiveError with the same failing rank and phase; Err is the
// actual local error on the failing rank and a reconstructed one (same
// message, same transient/permanent classification) everywhere else.
type CollectiveError struct {
	Rank  int    // lowest-ranked process whose local failure won the vote
	Phase string // collective phase that failed (PhaseIOPSetup, PhaseIOPWindow)
	Err   error  // underlying cause
}

func (e *CollectiveError) Error() string {
	return fmt.Sprintf("core: collective %s failed on rank %d: %v", e.Phase, e.Rank, e.Err)
}

func (e *CollectiveError) Unwrap() error { return e.Err }

// remoteErr reconstructs a peer rank's error from its agreed message,
// preserving the transient/permanent classification for errors.Is.
type remoteErr struct {
	msg   string
	class error // storage.ErrTransient or storage.ErrPermanent
}

func (e *remoteErr) Error() string { return e.msg }
func (e *remoteErr) Unwrap() error { return e.class }

// noFailure is the vote of a rank whose phases all succeeded; OpMin over
// the votes yields the lowest failing rank, or noFailure when none.
const noFailure = int64(math.MaxInt64)

// agreeCollective is the error-agreement protocol.  Every rank calls it
// with its local fault (nil when its phases succeeded) once its sends
// for the current collective are complete; it returns nil on every rank
// or an equal CollectiveError on every rank.
func (f *File) agreeCollective(local *CollectiveError) error {
	vote := noFailure
	if local != nil {
		vote = int64(f.p.Rank())
	}
	failRank := f.p.AllreduceInt64(vote, mpi.OpMin)
	if failRank == noFailure {
		return nil
	}
	var payload []byte
	if int64(f.p.Rank()) == failRank {
		payload = encodeCollFault(local)
	}
	payload = f.p.Bcast(int(failRank), payload)
	// Drain the abandoned collective's traffic.  Every send of this
	// collective happened before its sender voted (AP chunk sends, loans
	// and list sends are buffered and precede the IOP phase in program
	// order, and an IOP sends a read's chunks before it votes).  The vote
	// is a direct exchange: this rank has received every peer's vote from
	// that peer, over the same FIFO link that carried the peer's frames
	// to it, so at any P every frame of this collective addressed to this
	// rank has arrived — anything still queued under these tags belongs to
	// this collective and must go.  The caller's Barrier after the drain
	// keeps the next collective's sends from arriving before it.  A
	// drained chunk is pooled and goes back to the pool; an access list
	// is not.
	f.p.DrainTag(tagCollData, f.bp.Put)
	f.p.DrainTag(tagCollList, nil)
	if int64(f.p.Rank()) == failRank {
		return local
	}
	phase, cause := decodeCollFault(payload)
	return &CollectiveError{Rank: int(failRank), Phase: phase, Err: cause}
}

// Wire form of a fault: [phase code, class code, message bytes...].
const (
	faultPhaseSetup  = 1
	faultPhaseWindow = 2
	faultPhaseSeal   = 3
	faultPhaseCommit = 4

	faultClassTransient = 1
	faultClassPermanent = 2
)

func encodeCollFault(ce *CollectiveError) []byte {
	var phase byte
	switch ce.Phase {
	case PhaseIOPSetup:
		phase = faultPhaseSetup
	case PhaseIOPWindow:
		phase = faultPhaseWindow
	case PhaseEpochSeal:
		phase = faultPhaseSeal
	case PhaseEpochCommit:
		phase = faultPhaseCommit
	}
	class := byte(faultClassPermanent)
	if storage.IsTransient(ce.Err) {
		class = faultClassTransient
	}
	msg := ce.Err.Error()
	buf := make([]byte, 2+len(msg))
	buf[0], buf[1] = phase, class
	copy(buf[2:], msg)
	return buf
}

// decodeCollFault decodes a broadcast fault payload.  The payload
// crosses the (simulated) wire, so arbitrary bytes must decode to a
// usable phase and error rather than panic.
func decodeCollFault(buf []byte) (phase string, cause error) {
	if len(buf) < 2 {
		return phaseUnknown, &remoteErr{msg: "unreported remote failure", class: storage.ErrPermanent}
	}
	switch buf[0] {
	case faultPhaseSetup:
		phase = PhaseIOPSetup
	case faultPhaseWindow:
		phase = PhaseIOPWindow
	case faultPhaseSeal:
		phase = PhaseEpochSeal
	case faultPhaseCommit:
		phase = PhaseEpochCommit
	default:
		phase = phaseUnknown
	}
	class := storage.ErrPermanent
	if buf[1] == faultClassTransient {
		class = storage.ErrTransient
	}
	msg := string(buf[2:])
	if msg == "" {
		msg = "unreported remote failure"
	}
	return phase, &remoteErr{msg: msg, class: class}
}
