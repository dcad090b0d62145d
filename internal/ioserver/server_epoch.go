package ioserver

import (
	"fmt"
	"sync/atomic"

	"repro/internal/storage"
	"repro/internal/trace"
)

// Server side of the epoch commit protocol.  Staged writes are journaled
// and parked in memory, invisible to reads; opEpochCommit journals the
// commit decision and syncs the journal (the durability point, and the
// only one a commit waits for), applies the staged segments to the
// stripe, and clears.  Syncing the stripe and resetting the journal is a
// checkpoint, paid once per checkpointBytes of journal or when something
// forces it.  The protocol tolerates every crash instant (journal
// recovery re-applies every epoch committed since the last checkpoint,
// in order, and discards the rest) and every duplicate (re-staging and
// re-committing an epoch writes the same bytes to the same offsets).
//
// Seal is the liveness check: it echoes the server's incarnation plus
// this connection's staging tally, so a client can detect that a server
// bounced mid-epoch (empty tally where its stage log says otherwise) and
// that the incarnation it sealed against is the one the commit reaches.

// checkpointBytes is the live journal length at which a commit
// checkpoints: what a recovery replays, and the memory it replays it
// from, stay below it plus one epoch.
const checkpointBytes = 64 << 20

// commitEpoch makes epoch durable and visible: commit record → journal
// sync → apply.  Exactly one epoch is in flight at a time, so a commit
// also discards any abandoned staged state from earlier epochs, as
// recovery does on meeting its commit record.
func (s *Server) commitEpoch(epoch uint64, incarnation int64) error {
	if incarnation != s.incarnation {
		return fmt.Errorf("ioserver: commit for incarnation %d, server restarted as %d: %w",
			incarnation, s.incarnation, storage.ErrEpochRetry)
	}
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	segs := s.staged[epoch].segs
	if len(segs) == 0 {
		// Nothing of the epoch is staged here — a collective narrower than
		// the stripe set, or a commit retried after its first delivery was
		// applied.  Recovery ignores a commit record without stages, so
		// none is written.
		if epoch != s.lastCommitted {
			atomic.AddInt64(&s.stats.EpochsCommitted, 1)
		}
		s.lastCommitted = max(s.lastCommitted, epoch)
		return nil
	}
	n := int64(totalLen(segs))
	sp := s.cfg.Tracer.BeginIO(trace.PhaseServerCommit, int64(epoch), n)
	jsp := s.cfg.Tracer.BeginIO(trace.PhaseServerJournalSync, int64(epoch), n)
	err := s.journal.AppendCommit(epoch)
	jsp.End()
	if err == nil {
		err = s.moveSegs(segs, true)
	}
	sp.End()
	if err != nil {
		return err
	}
	s.lastCommitted = max(s.lastCommitted, epoch)
	s.dropStaged()
	s.journaled.Add(1)
	atomic.AddInt64(&s.stats.EpochsCommitted, 1)
	if s.journal.Live() >= s.checkpointAt {
		return s.checkpoint()
	}
	return nil
}

// checkpoint syncs the stripe and then, if the journal holds anything,
// resets it — in that order: once the stripe is durable every committed
// epoch in the journal is redundant, and a crash that tears the reset
// leaves an empty journal over a whole stripe.  An epoch still being
// staged is journaled again behind the reset, so its commit record finds
// its stages.  The caller holds epochMu.
func (s *Server) checkpoint() error {
	live := s.journal.Live()
	var sp trace.Span
	if live > 0 {
		sp = s.cfg.Tracer.BeginIO(trace.PhaseServerCheckpoint, trace.NoWindow, live)
		defer sp.End()
	}
	if err := s.cfg.Backend.Sync(); err != nil {
		return err
	}
	if live == 0 {
		return nil
	}
	if err := s.journal.Reset(); err != nil {
		return err
	}
	s.journaled.Store(0)
	atomic.AddInt64(&s.stats.Checkpoints, 1)
	for epoch, e := range s.staged {
		if err := s.journal.AppendStages(epoch, e.segs); err != nil {
			return err
		}
	}
	return nil
}

// settle checkpoints ahead of a direct mutation of the stripe if the
// journal holds committed epochs: replayed after a crash, they would
// otherwise land over the mutation.  Without any — every server that
// sees no epochs, and one that is only staging — it costs one atomic
// load.
func (s *Server) settle() error {
	if s.journaled.Load() == 0 {
		return nil
	}
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	return s.checkpoint()
}

// abortEpoch discards epoch's staged state, in memory and — by a
// checkpoint, which keeps the committed epochs the journal also holds —
// in the journal, where a later epoch of the same id must not find it.
func (s *Server) abortEpoch(epoch uint64) error {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	e, ok := s.staged[epoch]
	if !ok {
		return nil
	}
	atomic.AddInt64(&s.stats.EpochsAborted, 1)
	delete(s.staged, epoch)
	e.release()
	return s.checkpoint()
}

// stagedEpoch is what one epoch has staged on a server: its segments,
// and the pooled request frames they lie in, which go back to the pool
// when the epoch is applied or dropped.
type stagedEpoch struct {
	segs   []storage.Segment
	frames [][]byte
}

func (e stagedEpoch) release() {
	for _, f := range e.frames {
		framePool.Put(f)
	}
}

// dropStaged releases and forgets every staged epoch.  The caller holds
// epochMu.
func (s *Server) dropStaged() {
	for _, e := range s.staged {
		e.release()
	}
	clear(s.staged)
}

// stage journals st.segs — one write request's total bytes, resolved to
// segments over its frame payload — under epoch, parks them, counts the
// request in the connection's tally, and starts the journal's writeback
// of the records.  The hint is issued after epochMu is released, so that
// another connection's stage does not wait behind the syscall.
func (st *connState) stage(epoch uint64, total int64) error {
	if err := st.park(epoch, total); err != nil {
		return err
	}
	st.srv.journal.StartWriteback()
	return nil
}

// park is stage under epochMu.  The segments' bytes are kept, not
// copied: they lie in st.frame, the pooled frame the request reader read
// the payload into, which the epoch takes over, so they stay intact
// until the epoch is applied or dropped.  (The segment headers are
// copied; st.segs is scratch.  A request dispatched without a frame —
// the tests that call dispatch directly — parks its caller's payload.)
func (st *connState) park(epoch uint64, total int64) error {
	s := st.srv
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	if err := s.journal.AppendStages(epoch, st.segs); err != nil {
		return err
	}
	e := s.staged[epoch]
	e.segs = append(e.segs, st.segs...)
	if st.frame != nil {
		e.frames = append(e.frames, st.frame)
		st.frame = nil
	}
	s.staged[epoch] = e
	atomic.AddInt64(&s.stats.StagedWrites, 1)
	atomic.AddInt64(&s.stats.BytesWritten, total)
	// One epoch is in flight per connection at a time, so a new epoch
	// resets the tally.
	if st.tallyEpoch != epoch {
		st.tallyEpoch, st.tallyCount, st.tallyBytes = epoch, 0, 0
	}
	st.tallyCount++
	st.tallyBytes += total
	return nil
}

// opEpochSeal: epoch → incarnation, staged count, staged bytes (this
// connection's tally).
func (st *connState) opEpochSeal(epoch uint64, _ []byte) ([]byte, error) {
	atomic.AddInt64(&st.srv.stats.EpochsSealed, 1)
	var count, bytes int64
	if st.tallyEpoch == epoch {
		count, bytes = st.tallyCount, st.tallyBytes
	}
	st.resp = putVs(st.resp[:0], st.srv.incarnation, count, bytes)
	return st.resp, nil
}

func (st *connState) opEpochCommit(epoch uint64, body []byte) ([]byte, error) {
	inc, _, err := getV(body)
	if err != nil {
		return nil, err
	}
	return nil, st.srv.commitEpoch(epoch, inc)
}

func (st *connState) opEpochAbort(epoch uint64, _ []byte) ([]byte, error) {
	return nil, st.srv.abortEpoch(epoch)
}
