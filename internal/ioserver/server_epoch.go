package ioserver

import (
	"fmt"

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

// stageEpoch journals one request's segments under epoch and parks them.
// The segments' bytes are kept, not copied: they alias the request's
// frame payload, which transport.FrameConn.ReadFrame allocates per frame
// and hands over, so they stay intact until the epoch is applied or
// dropped.  (The segment headers are copied; segs itself is scratch.)
func (s *Server) stageEpoch(epoch uint64, segs []storage.Segment) error {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	if err := s.journal.AppendStages(epoch, segs); err != nil {
		return err
	}
	s.staged[epoch] = append(s.staged[epoch], segs...)
	var total int64
	for _, sg := range segs {
		total += int64(len(sg.Buf))
	}
	s.stats.stagedWrites.Add(1)
	s.stats.bytesWritten.Add(total)
	return nil
}

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
	segs := s.staged[epoch]
	if len(segs) == 0 {
		// Nothing of the epoch is staged here — a collective narrower than
		// the stripe set, or a commit retried after its first delivery was
		// applied.  Recovery ignores a commit record without stages, so
		// none is written.
		if epoch != s.lastCommitted {
			s.stats.epochsCommitted.Add(1)
		}
		s.lastCommitted = max(s.lastCommitted, epoch)
		return nil
	}
	var total int64
	for _, sg := range segs {
		total += int64(len(sg.Buf))
	}
	sp := s.cfg.Tracer.BeginIO(trace.PhaseServerCommit, int64(epoch), total)
	err := s.journal.AppendCommit(epoch)
	if err == nil {
		err = s.moveSegs(segs, true)
	}
	sp.End()
	if err != nil {
		return err
	}
	s.lastCommitted = max(s.lastCommitted, epoch)
	clear(s.staged)
	s.journaled.Add(1)
	s.stats.epochsCommitted.Add(1)
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
	s.stats.checkpoints.Add(1)
	for epoch, segs := range s.staged {
		if err := s.journal.AppendStages(epoch, segs); err != nil {
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
	if _, ok := s.staged[epoch]; !ok {
		return nil
	}
	s.stats.epochsAborted.Add(1)
	delete(s.staged, epoch)
	return s.checkpoint()
}

// LastCommitted reports the highest epoch committed by this instance.
func (s *Server) LastCommitted() uint64 {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	return s.lastCommitted
}

// tally records one staged request on this connection.  One epoch is in
// flight per connection at a time, so a new epoch resets the counters.
func (st *connState) tally(epoch uint64, bytes int64) {
	if st.tallyEpoch != epoch {
		st.tallyEpoch, st.tallyCount, st.tallyBytes = epoch, 0, 0
	}
	st.tallyCount++
	st.tallyBytes += bytes
}

// getEpoch decodes and validates a leading epoch id.
func getEpoch(payload []byte) (uint64, []byte, error) {
	e, rest, err := getV(payload)
	if err != nil {
		return 0, nil, err
	}
	if e <= 0 {
		return 0, nil, fmt.Errorf("%w: epoch id %d", errBadRequest, e)
	}
	return uint64(e), rest, nil
}

// opStageWrite: epoch, off, data → — (the staged twin of opWrite).
func (st *connState) opStageWrite(payload []byte) ([]byte, error) {
	epoch, payload, err := getEpoch(payload)
	if err != nil {
		return nil, err
	}
	off, data, err := getV(payload)
	if err != nil {
		return nil, err
	}
	if off < 0 {
		return nil, fmt.Errorf("%w: stage off %d", errBadRequest, off)
	}
	sp := st.srv.cfg.Tracer.BeginIO(trace.PhaseServerStage, off, int64(len(data)))
	defer sp.End()
	if err := st.srv.stageEpoch(epoch, []storage.Segment{{Off: off, Buf: data}}); err != nil {
		return nil, err
	}
	st.tally(epoch, int64(len(data)))
	return nil, nil
}

// opStageWritev: epoch, k, k×(off,n), data → — (staged opWritev).
func (st *connState) opStageWritev(payload []byte) ([]byte, error) {
	epoch, payload, err := getEpoch(payload)
	if err != nil {
		return nil, err
	}
	k, payload, err := getV(payload)
	if err != nil {
		return nil, err
	}
	if k < 0 || k > MaxListRuns {
		return nil, fmt.Errorf("%w: list of %d runs (limit %d)", errBadRequest, k, MaxListRuns)
	}
	st.segs = st.segs[:0]
	var total int64
	offs := make([][2]int64, 0, k)
	for i := int64(0); i < k; i++ {
		var off, n int64
		if off, payload, err = getV(payload); err != nil {
			return nil, err
		}
		if n, payload, err = getV(payload); err != nil {
			return nil, err
		}
		if off < 0 || n < 0 || total+n > int64(st.srv.cfg.MaxFrame) {
			return nil, fmt.Errorf("%w: list entry off %d len %d", errBadRequest, off, n)
		}
		offs = append(offs, [2]int64{off, n})
		total += n
	}
	if int64(len(payload)) != total {
		return nil, fmt.Errorf("%w: stage list names %d bytes, payload carries %d", errBadRequest, total, len(payload))
	}
	sp := st.srv.cfg.Tracer.BeginIO(trace.PhaseServerStage, 0, total)
	defer sp.End()
	var pos int64
	for _, e := range offs {
		st.segs = append(st.segs, storage.Segment{Off: e[0], Buf: payload[pos : pos+e[1]]})
		pos += e[1]
	}
	if err := st.srv.stageEpoch(epoch, st.segs); err != nil {
		return nil, err
	}
	st.tally(epoch, total)
	return nil, nil
}

// opStageViewWrite: epoch, handle, d0, d1, data → — (staged
// opViewWrite): the server walks the registered pattern like opView but
// stages the owned pieces instead of writing them, run by run because
// the journal records runs.
func (st *connState) opStageViewWrite(payload []byte) ([]byte, error) {
	epoch, payload, err := getEpoch(payload)
	if err != nil {
		return nil, err
	}
	v, d0, d1, payload, err := st.viewReq(payload)
	if err != nil {
		return nil, err
	}
	var total int64
	sp := st.srv.cfg.Tracer.BeginIO(trace.PhaseServerStage, d0, 0)
	defer func() { sp.EndBytes(total) }()
	st.segs = st.segs[:0]
	if total, err = st.ownedSegs(v, d0, d1, payload, nil); err != nil {
		return nil, err
	}
	if total != int64(len(payload)) {
		return nil, fmt.Errorf("%w: staged view write carries %d bytes, stripe owns %d of [%d,%d)",
			errBadRequest, len(payload), total, d0, d1)
	}
	if err := st.srv.stageEpoch(epoch, st.segs); err != nil {
		return nil, err
	}
	st.tally(epoch, total)
	return nil, nil
}

// opEpochSeal: epoch → incarnation, staged count, staged bytes (this
// connection's tally).
func (st *connState) opEpochSeal(payload []byte) ([]byte, error) {
	epoch, _, err := getEpoch(payload)
	if err != nil {
		return nil, err
	}
	st.srv.stats.epochsSealed.Add(1)
	var count, bytes int64
	if st.tallyEpoch == epoch {
		count, bytes = st.tallyCount, st.tallyBytes
	}
	resp := putV(st.resp[:0], st.srv.incarnation)
	resp = putV(resp, count)
	resp = putV(resp, bytes)
	st.resp = resp
	return resp, nil
}

// opEpochCommit: epoch, incarnation → —.
func (st *connState) opEpochCommit(payload []byte) ([]byte, error) {
	epoch, payload, err := getEpoch(payload)
	if err != nil {
		return nil, err
	}
	inc, _, err := getV(payload)
	if err != nil {
		return nil, err
	}
	return nil, st.srv.commitEpoch(epoch, inc)
}

// opEpochAbort: epoch → —.
func (st *connState) opEpochAbort(payload []byte) ([]byte, error) {
	epoch, _, err := getEpoch(payload)
	if err != nil {
		return nil, err
	}
	return nil, st.srv.abortEpoch(epoch)
}
