package storage

import "errors"

// Epoch-based commit.  A backend spread across several failure domains —
// the networked I/O-server tier, where each stripe lives in its own
// process — cannot make a multi-stripe collective write atomic with
// plain WriteAt: a server crash mid-collective leaves some stripes new
// and some old.  An EpochBackend fixes the contract: writes issued
// between EpochBegin and EpochCommit are *staged* under the epoch id
// (journaled server-side, invisible to reads), and only EpochCommit
// makes them durable, everywhere, atomically with respect to crashes —
// a server that dies and restarts discards every uncommitted epoch
// during journal recovery.
//
// The intended driver is core's collective write path: begin an epoch,
// run the two-phase schedule (whose window write-backs stage), hold the
// existing collective error vote, then seal on every rank and let rank 0
// broadcast the commit.  Reads always see the last committed state, so
// the collective pre-reads (which never overlap the windows written in
// the same collective) stay correct.

// ErrEpochRetry reports that a commit or seal raced a server restart:
// the staged state the caller sealed is gone (recovery discarded it) and
// the epoch must be re-staged and re-sealed before commit can succeed.
// It is deliberately NOT transient — blindly reissuing the commit would
// commit a partial epoch; only the caller can rerun the seal round.
var ErrEpochRetry = errors.New("storage: epoch state lost, re-seal required")

// IsEpochRetry reports whether err asks for a re-seal + re-commit round.
func IsEpochRetry(err error) bool { return errors.Is(err, ErrEpochRetry) }

// EpochBackend is the optional crash-consistent commit extension of
// Backend.
//
// A staged write lends its bytes.  The backend may keep them by reference
// — the I/O-server client keeps them so that a reconnect can replay the
// epoch's writes to a server that lost them — so the caller leaves the
// bytes of every write it staged under id unchanged until its
// EpochCommit, EpochAbort or EpochEnd of id has returned.  A backend
// shared by several callers (the ranks of one process) may replay any of
// their writes inside any of their calls: each caller keeps its bytes
// until its own call that ends the epoch has returned.
type EpochBackend interface {
	// SupportsEpochs reports whether epoch calls can succeed; wrappers
	// resolve the capability of their inner backend dynamically.
	SupportsEpochs() bool
	// EpochBegin enters staging mode: subsequent writes (WriteAt,
	// WriteAtv, ViewWrite) are staged under id instead of applied, their
	// bytes lent until the epoch ends.  Reads keep returning the last
	// committed state.  Begin is local bookkeeping and idempotent for the
	// active id, so every rank of a world sharing one backend may call it.
	EpochBegin(id uint64)
	// EpochSeal verifies that everything staged under id through this
	// backend actually reached the servers (a server that silently
	// bounced mid-epoch fails the seal, forcing a reconnect that
	// re-stages).  Every participant must seal before anyone commits.
	EpochSeal(id uint64) error
	// EpochCommit atomically applies epoch id on every stripe and ends
	// staging mode.  Exactly one participant commits.  ErrEpochRetry
	// means a server restarted after the seal: re-seal and re-commit.
	EpochCommit(id uint64) error
	// EpochAbort discards epoch id's staged state and ends staging mode.
	EpochAbort(id uint64) error
	// EpochEnd ends staging mode locally without touching staged state —
	// the non-committing participants' counterpart of EpochCommit.
	EpochEnd(id uint64)
}

// EpochStamper is the optional extension of an EpochBackend whose seal is
// checked against one incarnation of each server: a restarted server is a
// new incarnation, which has lost what the old one staged.  A seal only
// vouches for what its own mount staged, so mounts that seal the same
// epoch apart — OS-process ranks, a mount each — must also agree on the
// incarnations: if a server restarted between two mounts' seals, the
// later mount's reconnect re-staged its own writes and its seal passes,
// while the earlier mount's writes are gone.
type EpochStamper interface {
	// EpochSealStamp seals as EpochSeal does and returns a stamp of the
	// server incarnations the seal was checked against: two seals of an
	// epoch return the same stamp when they were checked against the same
	// incarnation of every server.
	EpochSealStamp(id uint64) (uint64, error)
}

// EpochSealStamp seals epoch id through eb and returns its stamp, 0 when
// eb has no EpochStamper.
func EpochSealStamp(eb EpochBackend, id uint64) (uint64, error) {
	if st, ok := eb.(EpochStamper); ok {
		return st.EpochSealStamp(id)
	}
	return 0, eb.EpochSeal(id)
}

// AsEpochBackend reports b's usable epoch extension, if any.
func AsEpochBackend(b Backend) (EpochBackend, bool) {
	eb, ok := b.(EpochBackend)
	if !ok || !eb.SupportsEpochs() {
		return nil, false
	}
	return eb, true
}

// ErrNoEpochs is returned by wrapper backends whose inner backend does
// not implement EpochBackend when an epoch method is called anyway.
var ErrNoEpochs = errors.New("storage: backend does not support epochs")
