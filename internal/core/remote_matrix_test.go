package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/datatype"
	"repro/internal/ioserver"
	"repro/internal/mpi"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// Remote-storage matrix: the transport matrix extended with a storage
// axis.  The same 4-rank collective write + read-back must leave the flat
// oracle's bytes whether the backend is a local Mem or a tier of remote
// I/O servers owning one stripe each — for both engines — and tearing
// the servers down must leak no goroutines or file descriptors.

// TestRemoteStorageMatrixByteIdentical is the acceptance criterion of
// the I/O-server tier: {local, remote 1-server, remote 3-server} × both
// engines, over TCP ranks, all byte-identical to the flat oracle.
func TestRemoteStorageMatrixByteIdentical(t *testing.T) {
	for _, eng := range []Engine{ListBased, Listless} {
		t.Run(eng.String(), func(t *testing.T) {
			defer testutil.LeakCheck(t)()
			fdBefore := testutil.FDCount(t)
			for _, w := range []world{{backend: "mem"}, {backend: "tier", servers: 1, unit: 32}, {backend: "tier", servers: 3, unit: 32}} {
				w.P, w.tcp, w.opts = 4, true, Options{Engine: eng, CollBufSize: 128}
				w.roundTrip(t, access{view: fig4(4, 16, 8), d: 128})
			}
			if fdAfter := testutil.FDCount(t); fdBefore >= 0 && fdAfter > fdBefore {
				t.Errorf("fd leak: %d before, %d after", fdBefore, fdAfter)
			}
		})
	}
}

// TestRemoteViewDirectPath forces the sparse direct path and checks
// that, against the server tier, it goes through registered views
// (constant-size requests, counted in Stats.ViewReads/ViewWrites),
// leaves the oracle's bytes, as the same access against a local Mem takes
// the offset-list path, and costs a number of round-trips that does not
// grow with the run count.
func TestRemoteViewDirectPath(t *testing.T) {
	defer testutil.LeakCheck(t)()
	// 8 useful bytes per 1024: far below the density threshold.
	const runs = 2000
	var rounds [3]int64
	for i, n := range []int64{runs, runs, 2 * runs} {
		var mount *ioserver.Striped
		w := world{P: 1, opts: Options{Engine: Listless, SieveDensity: 0.25}, wrap: func(b storage.Backend) storage.Backend {
			mount, _ = b.(*ioserver.Striped)
			return b
		}}
		if i > 0 {
			w.backend, w.servers = "tier", 3
		}
		view := mustType(datatype.Vector(n, 8, 1024, datatype.Byte))
		data := pattern(1, n*8)
		o := flat(func(int) (int64, *datatype.Type) { return 0, view }, nil, 0, [][]byte{data})
		res := w.run(t, o.file, func(r rank) {
			var r0 int64
			if mount != nil {
				r0 = mount.Rounds()
			}
			if err := r.f.SetView(0, datatype.Byte, view); err != nil {
				panic(err)
			}
			got := make([]byte, len(data))
			if _, err := r.f.WriteAt(0, n*8, datatype.Byte, data); err != nil {
				panic(err)
			}
			if _, err := r.f.ReadAt(0, n*8, datatype.Byte, got); err != nil || !bytes.Equal(got, data) {
				panic(fmt.Sprintf("direct read-back: %v, or it differs", err))
			}
			if mount != nil {
				rounds[i] = mount.Rounds() - r0
			}
		})
		switch st := res.stats; {
		case !bytes.Equal(res.file, o.file):
			t.Fatalf("%d runs on backend %q: the file differs from the oracle", n, w.backend)
		case i == 0 && (st.DirectReads == 0 || st.ViewReads != 0):
			t.Fatalf("local reference did not take the offset-list direct path: %+v", st)
		case i > 0 && (st.ViewRegistrations == 0 || st.ViewReads == 0 || st.ViewWrites == 0):
			t.Fatalf("view path not taken: %+v", st)
		}
	}
	if rounds[2] > rounds[1] {
		t.Fatalf("%d runs cost %d round-trips, %d runs cost %d: requests grow with the run count", runs, rounds[1], 2*runs, rounds[2])
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
	const worlds, P, d = 3, 2, 16 * 8
	o := flat(fig4(P, 16, 8), nil, 0, [][]byte{pattern(0, d), pattern(1, d)})
	tier := newTier(t, 64, 3)
	defer tier.close()
	errs := make([]error, worlds)
	var wg sync.WaitGroup
	for w := 0; w < worlds; w++ {
		sh := NewShared(tier.mount(t))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = mpi.Run(P, func(p *mpi.Proc) {
				f, err := Open(p, sh, Options{CollBufSize: 128})
				if err != nil {
					panic(err)
				}
				defer f.Close()
				if err := f.SetView(int64(w)*P*d, datatype.Byte, noncontigTypeP(p.Rank(), P, 16, 8)); err != nil {
					panic(err)
				}
				if _, err := f.WriteAt(0, d, datatype.Byte, pattern(p.Rank(), d)); err != nil {
					panic(err)
				}
				p.Barrier()
				got := make([]byte, d)
				if _, err := f.ReadAtAll(0, d, datatype.Byte, got); err != nil || !bytes.Equal(got, pattern(p.Rank(), d)) {
					panic(fmt.Sprintf("rank %d: read-back: %v, or it differs", p.Rank(), err))
				}
			})
		}(w)
	}
	wg.Wait()
	image := flattenBackend(t, tier.mount(t))
	for w, err := range errs {
		if err != nil {
			t.Fatalf("world %d: %v", w, err)
		}
		if got := image[int64(w)*P*d : int64(w+1)*P*d]; !bytes.Equal(got, o.file[:P*d]) {
			t.Fatalf("world %d: its range of the tier differs from the flat oracle", w)
		}
	}
}
