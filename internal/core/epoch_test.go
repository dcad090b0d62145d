package core

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/datatype"
	"repro/internal/fotf"
	"repro/internal/ioserver"
	"repro/internal/mpi"
	"repro/internal/pool"
	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// bounceTier is an in-process tier of I/O servers over Mem stripes whose
// servers restart on the addresses they had: a restart drops every
// uncommitted epoch, as a crashed server's recovery does.
type bounceTier struct {
	geom    storage.StripeGeom
	addrs   []string
	stripes []*storage.Mem
	servers []*ioserver.Server
}

func newBounceTier(t *testing.T, unit int64, n int) *bounceTier {
	t.Helper()
	b := &bounceTier{geom: storage.StripeGeom{Unit: unit, Count: n}, addrs: make([]string, n), servers: make([]*ioserver.Server, n)}
	for i := range b.addrs {
		b.stripes = append(b.stripes, storage.NewMem())
		b.addrs[i] = "127.0.0.1:0"
		b.start(i)
	}
	t.Cleanup(func() {
		for _, srv := range b.servers {
			srv.Close()
		}
	})
	return b
}

// start serves stripe i on its address.  It panics on failure: a bounce
// runs on a rank's goroutine.
func (b *bounceTier) start(i int) {
	srv, err := ioserver.New(ioserver.Config{Backend: b.stripes[i], Geom: b.geom, Index: i})
	if err != nil {
		panic(err)
	}
	ln, err := net.Listen("tcp", b.addrs[i])
	if err != nil {
		panic(err)
	}
	b.addrs[i] = ln.Addr().String()
	b.servers[i] = srv
	go srv.Serve(ln)
}

// bounce restarts server i.
func (b *bounceTier) bounce(i int) {
	b.servers[i].Close()
	b.start(i)
}

// mount is a fresh client mount of the tier.
func (b *bounceTier) mount(t *testing.T) *ioserver.Striped {
	t.Helper()
	m, err := ioserver.NewStriped(b.geom.Unit, b.addrs, ioserver.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

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

// keptData is every rank's data for g, its user buffer, and the file the
// collective write must leave over the background.
func keptData(g dwGeom) (bufs [][]byte, count int64, want []byte) {
	count = g.d / g.mem.Size()
	data := make([][]byte, g.P)
	bufs = make([][]byte, g.P)
	for rank := range data {
		data[rank] = pattern(rank*3+2, g.d)
		bufs[rank] = make([]byte, (count-1)*g.mem.Extent()+g.mem.TrueUB())
		fotf.UnpackCount(bufs[rank], data[rank], count, g.mem, 0)
	}
	want, _ = dwOracle(g, data)
	return bufs, count, want
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
// and on one checked pool every buffer and chunk is put back exactly once
// and none before the replay has read it: the replay would have sent the
// pool's poison, or a later window's bytes.
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
	bufs, count, want := keptData(g)
	background := bytes.Repeat([]byte{dwBackground}, len(want))
	tier := newBounceTier(t, 4096, 2)
	raw := tier.mount(t)
	if _, err := raw.WriteAt(background, 0); err != nil {
		t.Fatal(err)
	}
	hook := &sealHook{Striped: raw, before: func() {
		for i := range tier.servers {
			tier.bounce(i)
		}
	}}
	var be storage.Backend = hook
	switch outcome {
	case "commit":
		be = storage.NewResilient(hook, storage.ResilientConfig{})
	case "abort":
		fb := storage.NewFaulty(hook)
		fb.FailWriteRange(int64(len(want))-777-100, int64(len(want))) // the last window of IOP 1
		be = fb
	}
	sh := NewShared(be)
	bp := pool.NewChecked()
	eps := transport.NewLoopback(g.P)
	if tcp {
		var err error
		if eps, err = transport.NewLocalTCPWorld(g.P, transport.TCPConfig{Pool: bp}); err != nil {
			t.Fatal(err)
		}
	}
	errs := make([]error, g.P)
	stats := make([]Stats, g.P)
	_, err := mpi.RunOver(eps, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
		f, err := Open(p, sh, Options{CollBufSize: g.collBuf, Pool: bp})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		disp, ft := g.view(p.Rank())
		if err := f.SetView(disp, datatype.Byte, ft); err != nil {
			panic(err)
		}
		_, errs[p.Rank()] = f.WriteAtAll(0, count, g.mem, bufs[p.Rank()])
		if len(f.kept) != 0 || !allNil(f.kept[:cap(f.kept)]) {
			panic(fmt.Sprintf("rank %d: the handle still holds %d kept buffers after the epoch", p.Rank(), len(f.kept)))
		}
		stats[p.Rank()] = f.Stats
	})
	if err != nil {
		t.Fatal(err)
	}
	got := flattenBackend(t, raw)
	var st Stats
	for _, s := range stats {
		st.DirectWrites += s.DirectWrites
		st.EpochRetries += s.EpochRetries
		st.EpochsCommitted += s.EpochsCommitted
	}
	if (st.DirectWrites > 0) != (g.direct > 0) {
		t.Fatalf("%d direct window segments written; the test runs the wrong windows", st.DirectWrites)
	}
	switch outcome {
	case "abort":
		requireAgreement(t, outcome, errs, 1, PhaseIOPWindow)
		if !bytes.Equal(got, background) {
			t.Error("staged windows of a failed collective reached the file")
		}
	default:
		for r, e := range errs {
			if e != nil {
				t.Fatalf("rank %d: %v", r, e)
			}
		}
		if !bytes.Equal(got, want) {
			t.Error("the file differs from the oracle: the replay sent other bytes than the windows staged")
		}
		if retried := st.EpochRetries > 0; retried != (outcome == "seal-retry") || st.EpochsCommitted != int64(g.P) {
			t.Errorf("%d epoch retries, %d commits over the ranks", st.EpochRetries, st.EpochsCommitted)
		}
	}
	if hook.calls.Load() == 0 && outcome != "abort" {
		t.Error("no seal: the servers never restarted")
	}
	// Over TCP the links' own buffers come from the pool too, so only a
	// loopback world balances it; a second Put panics on either.
	if ps := bp.Stats(); !tcp && ps.Gets != ps.Puts {
		t.Errorf("%d buffers taken from the pool, %d put back", ps.Gets, ps.Puts)
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
	t.Cleanup(testutil.LeakCheck(t)) // last: after the tier's cleanups
	g := keptGeom(false)
	bufs, count, want := keptData(g)
	tier := newBounceTier(t, 4096, 2)
	if _, err := tier.mount(t).WriteAt(bytes.Repeat([]byte{dwBackground}, len(want)), 0); err != nil {
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
	stats := make([]Stats, g.P)
	_, err := mpi.RunWithOptions(g.P, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
		f, err := Open(p, shs[p.Rank()], Options{CollBufSize: g.collBuf, Pool: pool.NewChecked()})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		disp, ft := g.view(p.Rank())
		if err := f.SetView(disp, datatype.Byte, ft); err != nil {
			panic(err)
		}
		if _, err := f.WriteAtAll(0, count, g.mem, bufs[p.Rank()]); err != nil {
			panic(err)
		}
		stats[p.Rank()] = f.Stats
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := flattenBackend(t, tier.mount(t)); !bytes.Equal(got, want) {
		t.Fatal("the committed file differs from the oracle: a rank's stages were lost to the restart")
	}
	for rank, st := range stats {
		if st.EpochRetries != 1 || st.EpochsCommitted != 1 {
			t.Errorf("rank %d: %d epochs committed after %d retries, want 1 after 1", rank, st.EpochsCommitted, st.EpochRetries)
		}
	}
}
