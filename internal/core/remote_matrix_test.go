package core

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"

	"repro/internal/datatype"
	"repro/internal/ioserver"
	"repro/internal/mpi"
	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// Remote-storage matrix: the transport matrix extended with a storage
// axis.  The same 4-rank collective write + read-back must land
// byte-identical bytes whether the backend is a local Mem or a tier of
// remote I/O-server processes owning one stripe each — for both
// engines — and tearing the servers down must leak no goroutines or
// file descriptors.

// ioServerTier starts n in-process I/O servers over Mem stripes and
// returns the aggregate backend plus a shutdown func.
func ioServerTier(t *testing.T, unit int64, n int) (*ioserver.Striped, func()) {
	t.Helper()
	geom := storage.StripeGeom{Unit: unit, Count: n}
	addrs := make([]string, n)
	servers := make([]*ioserver.Server, n)
	for i := 0; i < n; i++ {
		srv, err := ioserver.New(ioserver.Config{Backend: storage.NewMem(), Geom: geom, Index: i})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		servers[i] = srv
		go srv.Serve(ln)
	}
	agg, err := ioserver.NewStriped(unit, addrs, ioserver.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return agg, func() {
		agg.Close()
		for _, srv := range servers {
			srv.Close()
		}
	}
}

// flattenBackend reads a backend's whole contents (one vectored call,
// so remote tiers pay one round-trip batch per server, not one per
// stripe unit).
func flattenBackend(t *testing.T, b storage.Backend) []byte {
	t.Helper()
	buf := make([]byte, b.Size())
	if len(buf) == 0 {
		return buf
	}
	if err := storage.ReadAtv(b, []storage.Segment{{Off: 0, Buf: buf}}); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestRemoteStorageMatrixByteIdentical is the acceptance criterion of
// the I/O-server tier: {local, remote 1-server, remote 3-server} × both
// engines, all byte-identical to the flat local oracle.
func TestRemoteStorageMatrixByteIdentical(t *testing.T) {
	const P = 4
	const blockcount, blocklen = 16, 8
	d := int64(blockcount * blocklen)

	run := func(t *testing.T, eng Engine, be storage.Backend) []byte {
		t.Helper()
		eps, err := transport.NewLocalTCPWorld(P, transport.TCPConfig{})
		if err != nil {
			t.Fatal(err)
		}
		sh := NewShared(be)
		_, err = mpi.RunOver(eps, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
			f, err := Open(p, sh, Options{Engine: eng, CollBufSize: 128})
			if err != nil {
				panic(err)
			}
			defer f.Close()
			if err := f.SetView(0, datatype.Byte, noncontigTypeP(p.Rank(), P, blockcount, blocklen)); err != nil {
				panic(err)
			}
			data := pattern(p.Rank(), d)
			if _, err := f.WriteAtAll(0, d, datatype.Byte, data); err != nil {
				panic(err)
			}
			got := make([]byte, d)
			if _, err := f.ReadAtAll(0, d, datatype.Byte, got); err != nil {
				panic(err)
			}
			if !bytes.Equal(got, data) {
				panic(fmt.Sprintf("rank %d: collective read-back mismatch", p.Rank()))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return flattenBackend(t, be)
	}

	for _, eng := range []Engine{ListBased, Listless} {
		t.Run(eng.String(), func(t *testing.T) {
			check := testutil.LeakCheck(t)
			fdBefore := testutil.FDCount(t)

			oracle := run(t, eng, storage.NewMem())
			if len(oracle) == 0 {
				t.Fatal("empty oracle file")
			}
			for _, servers := range []int{1, 3} {
				agg, stop := ioServerTier(t, 32, servers)
				got := run(t, eng, agg)
				stop()
				if !bytes.Equal(got, oracle) {
					t.Fatalf("%d-server file differs from local oracle (%d vs %d bytes)", servers, len(got), len(oracle))
				}
			}

			check()
			if fdBefore >= 0 {
				if fdAfter := testutil.FDCount(t); fdAfter > fdBefore {
					t.Errorf("fd leak: %d before, %d after", fdBefore, fdAfter)
				}
			}
		})
	}
}

// TestRemoteViewDirectPath forces the sparse direct path and checks
// that, against the server tier, it goes through registered views
// (constant-size requests, counted in Stats.ViewReads/ViewWrites),
// lands the same bytes as the same access against a local Mem, and
// costs a number of round-trips that does not grow with the run count.
func TestRemoteViewDirectPath(t *testing.T) {
	defer testutil.LeakCheck(t)()
	// 8 useful bytes per 1024: far below the density threshold.
	const runs = 2000

	type result struct {
		flat   []byte
		rounds int64
		stats  Stats
	}
	// run performs one direct write + read-back of n sparse runs on be.
	run := func(be storage.Backend, n int64) Stats {
		sparse, err := datatype.Vector(n, 8, 1024, datatype.Byte)
		if err != nil {
			t.Fatal(err)
		}
		d := n * 8
		var st Stats
		_, err = mpi.Run(1, func(p *mpi.Proc) {
			f, err := Open(p, NewShared(be), Options{Engine: Listless, SieveDensity: 0.25})
			if err != nil {
				panic(err)
			}
			defer f.Close()
			if err := f.SetView(0, datatype.Byte, sparse); err != nil {
				panic(err)
			}
			data := pattern(1, d)
			if _, err := f.WriteAt(0, d, datatype.Byte, data); err != nil {
				panic(err)
			}
			got := make([]byte, d)
			if _, err := f.ReadAt(0, d, datatype.Byte, got); err != nil {
				panic(err)
			}
			if !bytes.Equal(got, data) {
				panic("direct read-back mismatch")
			}
			st = f.Stats
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	tier := func(n int64) result {
		agg, stop := ioServerTier(t, 4096, 3)
		defer stop()
		st := run(agg, n)
		rounds := agg.Rounds() // before flatten's own round-trips
		return result{flat: flattenBackend(t, agg), rounds: rounds, stats: st}
	}

	mem := storage.NewMem()
	local := result{stats: run(mem, runs), flat: mem.Bytes()}
	view := tier(runs)
	double := tier(2 * runs)

	if !bytes.Equal(view.flat, local.flat) {
		t.Fatal("view path and the local offset-list path landed different bytes")
	}
	if view.stats.ViewRegistrations == 0 || view.stats.ViewReads == 0 || view.stats.ViewWrites == 0 {
		t.Fatalf("view path not taken: %+v", view.stats)
	}
	if local.stats.DirectReads == 0 || local.stats.ViewReads != 0 {
		t.Fatalf("local reference did not take the offset-list direct path: %+v", local.stats)
	}
	if double.rounds > view.rounds {
		t.Fatalf("%d runs cost %d round-trips, %d runs cost %d: requests grow with the run count",
			runs, view.rounds, 2*runs, double.rounds)
	}
}

// TestRemoteConcurrentMounts: several worlds, each through its own mount
// of one 3-server tier, write and read back disjoint offset ranges of it
// at the same time, and every range ends byte-identical to the flat
// oracle.  The writes are independent — a collective write opens an
// epoch, and the tier admits one epoch at a time — the read-back is
// collective.
func TestRemoteConcurrentMounts(t *testing.T) {
	defer testutil.LeakCheck(t)()
	const worlds, P = 3, 2
	const blockcount, blocklen = 16, 8
	d := int64(blockcount * blocklen)
	fileSize := P * d

	run := func(be storage.Backend, disp int64) error {
		sh := NewShared(be)
		_, err := mpi.Run(P, func(p *mpi.Proc) {
			f, err := Open(p, sh, Options{CollBufSize: 128})
			if err != nil {
				panic(err)
			}
			defer f.Close()
			if err := f.SetView(disp, datatype.Byte, noncontigTypeP(p.Rank(), P, blockcount, blocklen)); err != nil {
				panic(err)
			}
			data := pattern(p.Rank(), d)
			if _, err := f.WriteAt(0, d, datatype.Byte, data); err != nil {
				panic(err)
			}
			p.Barrier()
			got := make([]byte, d)
			if _, err := f.ReadAtAll(0, d, datatype.Byte, got); err != nil {
				panic(err)
			}
			if !bytes.Equal(got, data) {
				panic(fmt.Sprintf("rank %d: read-back mismatch", p.Rank()))
			}
		})
		return err
	}

	mem := storage.NewMem()
	if err := run(mem, 0); err != nil {
		t.Fatal(err)
	}
	oracle := mem.Bytes()

	agg, stop := ioServerTier(t, 64, 3)
	defer stop()
	var addrs []string
	for _, c := range agg.Clients() {
		addrs = append(addrs, c.Addr())
	}
	errs := make([]error, worlds)
	var wg sync.WaitGroup
	for w := 0; w < worlds; w++ {
		mount, err := ioserver.NewStriped(64, addrs, ioserver.ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer mount.Close()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = run(mount, int64(w)*fileSize)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("world %d: %v", w, err)
		}
	}
	image := flattenBackend(t, agg)
	for w := 0; w < worlds; w++ {
		if got := image[int64(w)*fileSize : int64(w+1)*fileSize]; !bytes.Equal(got, oracle) {
			t.Fatalf("world %d: its range of the tier differs from the flat oracle", w)
		}
	}
}
