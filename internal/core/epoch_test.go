package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/datatype"
	"repro/internal/ioserver"
	"repro/internal/mpi"
	"repro/internal/pool"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// sealHook is a tier mount whose first seal runs before and after hooks
// around it, while any other seal waits for it; every seal after the
// first is the mount's own.
type sealHook struct {
	*ioserver.Striped
	calls         atomic.Int64
	once          sync.Once
	before, after func()
}

func (s *sealHook) EpochSeal(id uint64) error {
	_, err := s.EpochSealStamp(id)
	return err
}

func (s *sealHook) EpochSealStamp(id uint64) (stamp uint64, err error) {
	s.calls.Add(1)
	first := false
	s.once.Do(func() {
		first = true
		if s.before != nil {
			s.before()
		}
		stamp, err = s.Striped.EpochSealStamp(id)
		if s.after != nil {
			s.after()
		}
	})
	if first {
		return stamp, err
	}
	return s.Striped.EpochSealStamp(id)
}

// keptGeom is a geometry for the epoch tests: every IOP writes several
// windows, so that each slot takes more than one; direct, every rank
// writes several of its own batches, each from a pack buffer, since its
// memory is 8-byte pieces.
func keptGeom(direct bool) dwGeom {
	if direct {
		return dwGeom{name: "16K-runs/P=2", P: 2, d: 8 * 16384, collBuf: 40000, view: stridedView(2, 8, 16384, 16384), mem: holeyDouble(), direct: +1}
	}
	return dwGeom{name: "64B-runs/P=2", P: 2, d: 512 * 64, collBuf: 4096, view: stridedView(2, 512, 64, 64), mem: datatype.Byte, direct: -1}
}

// TestEpochReplaysKeptWindows: every server of the tier restarts after the
// collective write's last window has staged and before the first seal,
// so the epoch commits only through the replay of every client's stage
// log — which holds the windows' bytes by reference, in the buffers the
// collective keeps until the epoch ends.  Buffered windows, whose remote
// shares arrive over TCP as chunks, and direct ones, which every rank
// writes itself from pack buffers; a seal that heals inside the backend
// (Resilient redials and replays), a seal vote that fails once and
// re-seals, and an epoch aborted by a failed window.
// The file is byte-identical to the flat oracle, or untouched on abort,
// and on one checked pool, the links' too over TCP, no buffer or chunk is
// put back twice and none before the replay has read it: the replay would
// have sent the pool's poison, or a later window's bytes; on the loopback
// every one is put back.
func TestEpochReplaysKeptWindows(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	for _, direct := range []bool{false, true} {
		for _, tcp := range []bool{false, true} {
			for _, outcome := range []string{"commit", "seal-retry", "abort"} {
				t.Run(fmt.Sprintf("direct=%v/tcp=%v/%s", direct, tcp, outcome), func(t *testing.T) {
					testEpochReplaysKeptWindows(t, keptGeom(direct), tcp, outcome)
				})
			}
		}
	}
}

func testEpochReplaysKeptWindows(t *testing.T, g dwGeom, tcp bool, outcome string) {
	o := g.oracle(2)
	tier := newTier(t, 4096, 2)
	defer tier.close()
	var hook *sealHook
	w := world{P: g.P, tcp: tcp, backend: "tier", tier: tier, checked: true, linkPool: true, opts: Options{collBufSize: g.collBuf}, wrap: func(b storage.Backend) storage.Backend {
		hook = &sealHook{Striped: b.(*ioserver.Striped), before: func() {
			for i := range tier.servers {
				tier.bounce(i)
			}
		}}
		switch outcome {
		case "commit":
			return storage.NewResilient(hook, storage.ResilientConfig{})
		case "abort":
			fb := storage.NewFaulty(hook)
			if g.direct > 0 {
				// A view write's offset is a data offset: every rank's last
				// own batch holds the views' last data bytes.
				fb.FailWriteRange(g.d-100, g.d)
			} else {
				fb.FailWriteRange(int64(len(o.file))-777-100, int64(len(o.file))) // the last window of IOP 1
			}
			return fb
		}
		return hook
	}}
	errs := make([]error, g.P)
	res := w.run(t, bytes.Repeat([]byte{background}, len(o.file)), func(r rank) {
		disp, ft := g.view(r.p.Rank())
		if err := r.f.SetView(disp, datatype.Byte, ft); err != nil {
			panic(err)
		}
		_, errs[r.p.Rank()] = r.f.WriteAtAll(0, o.count[r.p.Rank()], g.mem, o.bufs[r.p.Rank()])
		if msg := keepsNoBuffer(r.f); msg != "" {
			panic(fmt.Sprintf("rank %d: %s after the epoch", r.p.Rank(), msg))
		}
	})
	if st := res.stats; (st.ownWrites() > 0) != (g.direct > 0) {
		t.Fatalf("%d own batches of direct windows written; the test runs the wrong windows", st.ownWrites())
	}
	want := o.file
	switch st := res.stats; {
	case outcome == "abort":
		failRank := 1 // the IOP of the last window
		if g.direct > 0 {
			failRank = 0 // every rank fails its last batch, and the lowest wins the vote
		}
		requireAgreement(t, outcome, errs, failRank, PhaseIOPWindow)
		want = bytes.Repeat([]byte{background}, len(o.file))
	case errors.Join(errs...) != nil:
		t.Fatal(errors.Join(errs...))
	case (st.EpochRetries > 0) != (outcome == "seal-retry") || st.EpochsCommitted != int64(g.P):
		t.Errorf("%d epoch retries, %d commits over the ranks", st.EpochRetries, st.EpochsCommitted)
	}
	if !bytes.Equal(res.file, want) {
		t.Error("the file differs from the oracle: the replay sent other bytes than the windows staged, or an aborted epoch's reached it")
	}
	if hook.calls.Load() == 0 && outcome != "abort" {
		t.Error("no seal: the servers never restarted")
	}
}

// TestEpochSealsOneIncarnation: ranks with a mount each, as OS-process
// ranks have, stage one collective write's epoch on the same servers.
// Rank 1 seals first; then server 0 restarts, dropping the epoch, and
// rank 0 seals — its reconnect replays its own stage log, so its seal
// passes against the new incarnation.  A commit now would lose rank 1's
// windows on server 0.  The ranks' seal stamps differ, so the vote fails
// and every rank re-seals: rank 1's reconnect replays its log, and the
// committed file is the flat oracle's.
func TestEpochSealsOneIncarnation(t *testing.T) {
	defer testutil.LeakCheck(t)()
	g := keptGeom(false)
	o := g.oracle(2)
	tier := newTier(t, 4096, 2)
	defer tier.close()
	if _, err := tier.mount(t).WriteAt(bytes.Repeat([]byte{background}, len(o.file)), 0); err != nil {
		t.Fatal(err)
	}
	rank1Sealed := make(chan struct{})
	shs := make([]*Shared, g.P)
	for rank := range shs {
		hook := &sealHook{Striped: tier.mount(t)}
		if rank == 1 {
			hook.after = func() { close(rank1Sealed) }
		} else {
			hook.before = func() {
				<-rank1Sealed
				tier.bounce(0)
			}
		}
		shs[rank] = NewShared(storage.NewResilient(hook, storage.ResilientConfig{}))
	}
	stats, bp := make([]Stats, g.P), pool.NewChecked()
	_, err := mpi.RunWithOptions(g.P, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
		f, err := Open(p, shs[p.Rank()], Options{collBufSize: g.collBuf, pool: bp})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		disp, ft := g.view(p.Rank())
		if err := f.SetView(disp, datatype.Byte, ft); err != nil {
			panic(err)
		}
		if _, err := f.WriteAtAll(0, o.count[p.Rank()], g.mem, o.bufs[p.Rank()]); err != nil {
			panic(err)
		}
		stats[p.Rank()] = f.Stats
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := flattenBackend(t, tier.mount(t)); !bytes.Equal(got, o.file) {
		t.Fatal("the committed file differs from the oracle: a rank's stages were lost to the restart")
	}
	for rank, st := range stats {
		if st.EpochRetries != 1 || st.EpochsCommitted != 1 {
			t.Errorf("rank %d: %d epochs committed after %d retries, want 1 after 1", rank, st.EpochsCommitted, st.EpochRetries)
		}
	}
	if ps := bp.Stats(); ps.Gets != ps.Puts {
		t.Errorf("%d buffers taken from the pool, %d put back", ps.Gets, ps.Puts)
	}
}

// refusingTier is the in-process tier with one step of its epoch
// protocol refused for good: every seal, or every commit, fails with an
// injected permanent fault.  The servers never see the refused calls.
type refusingTier struct {
	*ioserver.Striped
	refuse         string // "seal" or "commit"
	seals, commits atomic.Int64
}

func (b *refusingTier) EpochSeal(id uint64) error {
	_, err := b.EpochSealStamp(id)
	return err
}

func (b *refusingTier) EpochSealStamp(id uint64) (uint64, error) {
	b.seals.Add(1)
	if b.refuse == "seal" {
		return 0, fmt.Errorf("test: seal of epoch %d refused: %w", id, storage.ErrInjected)
	}
	return b.Striped.EpochSealStamp(id)
}

func (b *refusingTier) EpochCommit(id uint64) error {
	b.commits.Add(1)
	if b.refuse == "commit" {
		return fmt.Errorf("test: commit of epoch %d refused: %w", id, storage.ErrInjected)
	}
	return b.Striped.EpochCommit(id)
}

// TestEpochGivesUp: the epoch protocol's give-up paths.  A seal that fails
// on every one of maxEpochAttempts rounds, and a commit that fails with
// anything but ErrEpochRetry, end the collective write on every rank in
// the same CollectiveError of PhaseEpochSeal or PhaseEpochCommit — rank
// 0's, which wins the seal vote and is the one that commits — and abort
// the epoch: no stripe holds a byte of it, and the checked pool balances.
// Buffered and direct windows, in-process at P = 2.
func TestEpochGivesUp(t *testing.T) {
	defer testutil.LeakCheck(t)()
	for _, direct := range []bool{false, true} {
		for _, refuse := range []string{"seal", "commit"} {
			label := fmt.Sprintf("direct=%v/%s", direct, refuse)
			g := keptGeom(direct)
			o := g.oracle(5)
			tier := newTier(t, 4096, 2)
			var rt *refusingTier
			w := world{P: g.P, backend: "tier", tier: tier, checked: true, opts: Options{collBufSize: g.collBuf}, wrap: func(b storage.Backend) storage.Backend {
				rt = &refusingTier{Striped: b.(*ioserver.Striped), refuse: refuse}
				return rt
			}}
			errs := make([]error, g.P)
			res := w.run(t, bytes.Repeat([]byte{background}, len(o.file)), func(r rank) {
				disp, ft := g.view(r.p.Rank())
				if err := r.f.SetView(disp, datatype.Byte, ft); err != nil {
					panic(err)
				}
				_, errs[r.p.Rank()] = r.f.WriteAtAll(0, o.count[r.p.Rank()], g.mem, o.bufs[r.p.Rank()])
				if msg := keepsNoBuffer(r.f); msg != "" {
					panic(fmt.Sprintf("rank %d: %s after the epoch", r.p.Rank(), msg))
				}
			})
			phase, seals, commits := PhaseEpochSeal, int64(maxEpochAttempts*g.P), int64(0)
			if refuse == "commit" {
				phase, seals, commits = PhaseEpochCommit, int64(g.P), 1
			}
			requireAgreement(t, label, errs, 0, phase)
			if rt.seals.Load() != seals || rt.commits.Load() != commits {
				t.Errorf("%s: %d seals and %d commits, want %d and %d", label, rt.seals.Load(), rt.commits.Load(), seals, commits)
			}
			if st := res.stats; st.EpochAborts != int64(g.P) || st.EpochsCommitted != 0 || st.EpochRetries != (seals/int64(g.P)-1)*int64(g.P) {
				t.Errorf("%s: %d epochs aborted, %d committed, %d retries over the ranks", label, st.EpochAborts, st.EpochsCommitted, st.EpochRetries)
			}
			var held int
			for i, s := range tier.stripes {
				b := flattenBackend(t, s)
				held += len(b)
				if n := bytes.Count(b, []byte{background}); n != len(b) {
					t.Errorf("%s: stripe %d holds %d bytes of the epoch", label, i, len(b)-n)
				}
			}
			if held != len(o.file) {
				t.Errorf("%s: the stripes hold %d bytes, the file %d", label, held, len(o.file))
			}
			tier.close()
		}
	}
}
