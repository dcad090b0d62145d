package core

import (
	"fmt"

	"repro/internal/storage"
	"repro/internal/trace"
)

// Crash-consistent collective writes.  When the backend supports the
// epoch commit protocol (storage.EpochBackend — the networked I/O-server
// tier), every collective write runs inside an epoch: the window
// write-backs stage instead of apply, and after the existing collective
// error vote passes, the ranks run the commit protocol below.  A server
// that crashes mid-collective therefore leaves every stripe at the last
// committed collective — no torn multi-stripe state — and a server that
// bounces and heals mid-collective costs a retried round, not a failed
// or corrupt write.
//
// The commit protocol per epoch, all collective:
//
//  1. every rank seals the epoch on every server (verifying its staged
//     writes survived, re-staging over a reconnect if not);
//  2. the seal outcomes are voted (one AllgatherInt64, the messages of
//     the error vote's AllreduceInt64): each rank's vote is its seal's
//     stamp of the server incarnations it was checked against
//     (storage.EpochStamper), or a failure.  A failed seal, or a stamp
//     other than rank 0's, within the attempt budget re-runs step 1 —
//     Resilient's reconnect has replayed the stage log by then.  Ranks
//     with a mount each need the stamps: a server that restarted between
//     two ranks' seals lost the stages of the rank that sealed first,
//     whose re-seal reconnects and replays them;
//  3. rank 0 commits (carrying the incarnation it sealed against, so a
//     commit racing a restart is refused with ErrEpochRetry rather than
//     committing a partial epoch) and broadcasts the outcome byte;
//  4. on retry outcomes everyone loops; on failure everyone aborts and
//     returns the same rank-attributed CollectiveError.
//
// Scope: the protocol covers *server* crashes.  A rank that dies mid
// fan-out of step 3 is outside the failure model (the world dies with
// it); servers whose epochs were committed before the death keep them,
// uncommitted ones are discarded at restart.

// maxEpochAttempts bounds the seal/commit retry rounds per epoch.  Each
// failed round already rode a Resilient retry budget to its end, so
// attempts beyond a few mean the tier is genuinely down.
const maxEpochAttempts = 4

// Commit-outcome bytes broadcast by rank 0 in step 3.
const (
	epochOutcomeOK    = 0
	epochOutcomeRetry = 1
	epochOutcomeFail  = 2
)

// epochBegin allocates the collective's epoch id and enters staging
// mode.  Ids are lockstep across ranks (same per-handle sequence) and
// never reused within a world (the Shared high-water mark carries the
// sequence across sequentially opened handles).
func (f *File) epochBegin() uint64 {
	f.epochSeq++
	id := f.epochBase + f.epochSeq
	f.sh.noteEpoch(id)
	f.epochBE.EpochBegin(id)
	return id
}

// epochAbandon discards the epoch after a failed collective: rank 0
// tells the servers (best effort), everyone else just leaves staging
// mode.  All ranks of a failed collective take this path, so the staged
// state cannot be committed later by accident.
func (f *File) epochAbandon(id uint64) {
	f.Stats.EpochAborts++
	if f.p.Rank() == 0 {
		f.epochBE.EpochAbort(id)
	} else {
		f.epochBE.EpochEnd(id)
	}
}

// sealVote is step 2's vote: it gathers every rank's seal outcome and
// returns the lowest rank whose seal failed or was checked against other
// server incarnations than rank 0's, or noFailure.  A vote is the seal's
// stamp, cut to 63 bits, or -1 for a failed seal.
func (f *File) sealVote(stamp uint64, err error) int64 {
	vote := int64(stamp >> 1)
	if err != nil {
		vote = -1
	}
	votes := f.p.AllgatherInt64(vote)
	for r, v := range votes {
		if v < 0 || v != votes[0] {
			return int64(r)
		}
	}
	return noFailure
}

// epochFinish runs the commit protocol (steps 1-4 above) after a
// successful error vote.  It is fully collective: every rank takes the
// same branch every round, so no rank can strand another.
func (f *File) epochFinish(id uint64) error {
	for attempt := 1; ; attempt++ {
		// Step 1: seal everywhere.  A seal failure here has already
		// exhausted the backend's transient-retry budget.
		ssp := f.tr.Begin(trace.PhaseEpochSeal, int64(id), 0)
		stamp, sealErr := storage.EpochSealStamp(f.epochBE, id)
		ssp.End()

		// Step 2: vote the seal outcomes.
		failRank := f.sealVote(stamp, sealErr)
		if failRank == int64(f.p.Rank()) && sealErr == nil {
			sealErr = fmt.Errorf("core: epoch %d sealed against other server incarnations than rank 0's: %w", id, storage.ErrEpochRetry)
		}
		if failRank != noFailure {
			if attempt < maxEpochAttempts {
				// Typically a server still restarting: re-seal, which
				// reconnects and replays the stage log.
				f.Stats.EpochRetries++
				f.tr.Instant(trace.PhaseEpochRetry, int64(id), 0, "re-seal")
				continue
			}
			var local *CollectiveError
			if sealErr != nil {
				local = &CollectiveError{Rank: f.p.Rank(), Phase: PhaseEpochSeal, Err: sealErr}
			}
			var payload []byte
			if int64(f.p.Rank()) == failRank {
				payload = encodeCollFault(local)
			}
			payload = f.p.Bcast(int(failRank), payload)
			f.epochAbandon(id)
			if int64(f.p.Rank()) == failRank {
				return local
			}
			phase, cause := decodeCollFault(payload)
			return &CollectiveError{Rank: int(failRank), Phase: phase, Err: cause}
		}

		// Step 3: rank 0 commits and broadcasts the outcome.
		var outcome byte
		var commitErr error
		if f.p.Rank() == 0 {
			csp := f.tr.Begin(trace.PhaseEpochCommit, int64(id), 0)
			commitErr = f.epochBE.EpochCommit(id)
			csp.End()
			switch {
			case commitErr == nil:
				outcome = epochOutcomeOK
			case storage.IsEpochRetry(commitErr) && attempt < maxEpochAttempts:
				// A server restarted between seal and commit; its staged
				// state is gone.  Re-seal (replaying) and re-commit.
				outcome = epochOutcomeRetry
			default:
				outcome = epochOutcomeFail
			}
		}
		var payload []byte
		if f.p.Rank() == 0 {
			payload = []byte{outcome}
			if outcome == epochOutcomeFail {
				payload = append(payload,
					encodeCollFault(&CollectiveError{Rank: 0, Phase: PhaseEpochCommit, Err: commitErr})...)
			}
		}
		payload = f.p.Bcast(0, payload)
		if len(payload) == 0 {
			payload = []byte{epochOutcomeFail}
		}

		// Step 4: act on the agreed outcome.
		switch payload[0] {
		case epochOutcomeOK:
			f.epochBE.EpochEnd(id)
			f.Stats.EpochsCommitted++
			return nil
		case epochOutcomeRetry:
			f.Stats.EpochRetries++
			f.tr.Instant(trace.PhaseEpochRetry, int64(id), 0, "re-commit")
			continue
		default:
			f.epochAbandon(id)
			if f.p.Rank() == 0 {
				return &CollectiveError{Rank: 0, Phase: PhaseEpochCommit, Err: commitErr}
			}
			phase, cause := decodeCollFault(payload[1:])
			return &CollectiveError{Rank: 0, Phase: phase, Err: cause}
		}
	}
}
