package core

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// The allocation-regression suite: the steady-state collective window
// loop must not allocate.  Per-collective setup (plan, engine states,
// pipeline channels) may allocate; per-window work — window buffers,
// exchange chunks, engine window descriptors, pipeline hand-offs — must
// come from the pool and the freelists.
//
// Measurement: inside one warm world, run the same collective at two
// sizes and divide the allocation difference by the window difference.
// Everything per-collective cancels in the subtraction; what remains is
// the per-window cost.  GC is disabled during the measurement so
// sync.Pool cannot shed its contents mid-run.

const (
	allocWinSize  = 4096 // CollBufSize: small windows, many of them
	allocBlocklen = 64   // holey vector: 50% density, pre-reads happen
)

// allocView installs the holey fileview: every other allocBlocklen-byte
// block, so a write window is never fully covered and the pipelined
// loop exercises its pre-read path too.
func allocView(f *File, blocks int64) error {
	vec, err := datatype.Hvector(blocks, allocBlocklen, 2*allocBlocklen, datatype.Byte)
	if err != nil {
		return err
	}
	return f.SetView(0, datatype.Byte, vec)
}

// measureCollective returns the average allocations of one collective
// access of d data bytes in an already-warm world.
func measureCollective(t *testing.T, f *File, buf []byte, d int64, write bool) float64 {
	t.Helper()
	return testing.AllocsPerRun(10, func() {
		var err error
		if write {
			_, err = f.WriteAtAll(0, d, datatype.Byte, buf[:d])
		} else {
			_, err = f.ReadAtAll(0, d, datatype.Byte, buf[:d])
		}
		if err != nil {
			t.Errorf("collective: %v", err)
		}
	})
}

func testWindowAllocFree(t *testing.T, engine Engine, write, metrics bool, wantPerWindow float64) {
	if testutil.RaceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// One P throughout, as inside AllocsPerRun: sync.Pool caches per P,
	// so the warm-up must fill the cache the measurement draws from.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	// Window counts: d bytes of data cover 2*d bytes of file (50%
	// density), so windows = 2*d/allocWinSize.
	const dSmall = int64(4 * allocWinSize / 2)  // 4 windows
	const dLarge = int64(16 * allocWinSize / 2) // 16 windows
	const winSmall, winLarge = 4, 16

	var reg *obs.Registry
	if metrics {
		reg = obs.NewRegistry()
	}
	bp := pool.New()
	_, err := mpi.Run(1, func(p *mpi.Proc) {
		sh := NewShared(storage.NewMem())
		f, err := Open(p, sh, Options{Engine: engine, CollBufSize: allocWinSize, Metrics: reg, Pool: bp})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		if err := allocView(f, dLarge/allocBlocklen); err != nil {
			panic(err)
		}
		buf := make([]byte, dLarge)

		// Warm-up: grows the inbox queue to its high-water mark, fills
		// the buffer pool's classes, and populates the engine freelist.
		if _, err := f.WriteAtAll(0, dLarge, datatype.Byte, buf); err != nil {
			panic(err)
		}
		if _, err := f.ReadAtAll(0, dLarge, datatype.Byte, buf); err != nil {
			panic(err)
		}

		aSmall := measureCollective(t, f, buf, dSmall, write)
		s0 := bp.Stats()
		aLarge := measureCollective(t, f, buf, dLarge, write)
		s1 := bp.Stats()
		perWindow := (aLarge - aSmall) / (winLarge - winSmall)
		if perWindow > wantPerWindow {
			t.Errorf("engine %v write=%v: %.2f allocs per steady-state window (small=%v large=%v), want <= %v",
				engine, write, perWindow, aSmall, aLarge, wantPerWindow)
		}
		// The zero above is not vacuous: every window does draw a buffer
		// and hand it back, and the pool serves each one without
		// allocating.
		if s1.Gets-s0.Gets < winLarge || s1.Puts-s0.Puts < winLarge {
			t.Errorf("engine %v write=%v: %d gets, %d puts over %d-window collectives: the windows do not go through the pool",
				engine, write, s1.Gets-s0.Gets, s1.Puts-s0.Puts, winLarge)
		}
		if s1.Misses != s0.Misses || s1.BytesAlloc != s0.BytesAlloc {
			t.Errorf("engine %v write=%v: warm pool missed %d times (%d B) in steady state",
				engine, write, s1.Misses-s0.Misses, s1.BytesAlloc-s0.BytesAlloc)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestListlessWindowZeroAlloc: the listless engine's steady-state
// window loop — pooled buffers, recycled chunks, freelisted window
// descriptors, persistent pipeline workers — performs zero allocations
// per window.
func TestListlessWindowZeroAlloc(t *testing.T) {
	for _, write := range []bool{true, false} {
		testWindowAllocFree(t, Listless, write, false, 0)
	}
}

// TestListlessWindowZeroAllocMetricsOn: instrumentation must be free in
// the steady state.  Every hot-path increment is a single atomic add on
// a handle registered at Open, so turning the metrics registry on may
// not reintroduce per-window allocations.
func TestListlessWindowZeroAllocMetricsOn(t *testing.T) {
	for _, write := range []bool{true, false} {
		testWindowAllocFree(t, Listless, write, true, 0)
	}
}

// byteBlocks builds a monotone Hindexed memtype of n blocks of blocklen
// bytes, one block-length apart.
func byteBlocks(n, blocklen int64) *datatype.Type {
	bl := make([]int64, n)
	displs := make([]int64, n)
	for i := range bl {
		bl[i], displs[i] = blocklen, 2*blocklen*int64(i)
	}
	dt, err := datatype.Hindexed(bl, displs, datatype.Byte)
	if err != nil {
		panic(err)
	}
	return dt
}

// TestCollectiveAllocIndependentOfMemtypeEncoding: what a type derives —
// its encoding, its compiled program — is derived once and kept with
// the type, so a steady-state collective op allocates the same whether
// its memtype encodes to a few hundred bytes or to tens of kilobytes.
func TestCollectiveAllocIndependentOfMemtypeEncoding(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const d = int64(8 * allocWinSize / 2)
	small, large := byteBlocks(64, d/64), byteBlocks(d/4, 4) // the same d data bytes each
	if s, l := datatype.EncodedSize(small), datatype.EncodedSize(large); l < 32*s || l < 8<<10 {
		t.Fatalf("encoded sizes %d and %d do not separate the cases", s, l)
	}
	_, err := mpi.Run(1, func(p *mpi.Proc) {
		f, err := Open(p, NewShared(storage.NewMem()), Options{Engine: Listless, CollBufSize: allocWinSize})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		if err := allocView(f, d/allocBlocklen); err != nil {
			panic(err)
		}
		buf := make([]byte, large.Extent())
		bytesPerOp := func(mem *datatype.Type) int64 {
			op := func() {
				if _, err := f.WriteAtAll(0, 1, mem, buf); err != nil {
					panic(err)
				}
				if _, err := f.ReadAtAll(0, 1, mem, buf); err != nil {
					panic(err)
				}
			}
			op() // warm: compile, pool classes, freelists
			const ops = 10
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < ops; i++ {
				op()
			}
			runtime.ReadMemStats(&m1)
			return int64(m1.TotalAlloc-m0.TotalAlloc) / ops
		}
		bs, bl := bytesPerOp(small), bytesPerOp(large)
		if slack := int64(datatype.EncodedSize(large)) / 8; bl-bs > slack {
			t.Errorf("write+read allocates %d B with the large memtype, %d B with the small one: grows with the encoding (%d B)",
				bl, bs, datatype.EncodedSize(large))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDecodedViewCollectedWithItsDerivedData: a decoded remote fileview
// that has been navigated, walked and given a program is referenced by
// nothing but the engine's view table, so the SetView that replaces the
// table frees the type and, with it, everything derived from it.  With
// programs disabled the window copies walk the tree, which is the other
// user of the per-node index.
func TestDecodedViewCollectedWithItsDerivedData(t *testing.T) {
	for _, noProgram := range []bool{false, true} {
		collected := make(chan struct{})
		_, err := mpi.Run(1, func(p *mpi.Proc) {
			f, err := Open(p, NewShared(storage.NewMem()),
				Options{Engine: Listless, CollBufSize: allocWinSize, DisableProgram: noProgram})
			if err != nil {
				panic(err)
			}
			defer f.Close()
			ft := byteBlocks(257, 24)
			if err := f.SetView(0, datatype.Byte, ft); err != nil {
				panic(err)
			}
			buf := make([]byte, ft.Size())
			if _, err := f.WriteAtAll(0, ft.Size(), datatype.Byte, buf); err != nil {
				panic(err)
			}
			decoded := f.eng.(*listlessEngine).remote[0].ftype
			dd := decoded.Derived()
			if decoded == ft || dd.Nav.Load() == nil || (dd.Prog.Load() == nil) != noProgram {
				panic("the decoded view was not navigated and compiled; the test would prove nothing")
			}
			runtime.SetFinalizer(decoded, func(*datatype.Type) { close(collected) })
			decoded, dd = nil, nil
			if err := f.SetView(0, datatype.Byte, datatype.Byte); err != nil {
				panic(err)
			}
			for i := 0; i < 10; i++ {
				runtime.GC()
				select {
				case <-collected:
					return
				case <-time.After(10 * time.Millisecond):
				}
			}
			t.Errorf("DisableProgram=%v: decoded fileview still reachable after the SetView that dropped it", noProgram)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkCollectiveWindow is the -benchmem benchmark of the
// steady-state window loop: P=4 nc-nc collective writes+reads.
func BenchmarkCollectiveWindow(b *testing.B) {
	const (
		P          = 4
		blockcount = 512
		blocklen   = 64
	)
	d := blockcount * int64(blocklen)
	b.ReportAllocs()
	sh := NewShared(storage.NewMem())
	_, err := mpi.Run(P, func(p *mpi.Proc) {
		f, err := Open(p, sh, Options{Engine: Listless, CollBufSize: 64 << 10})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		ft, err := NoncontigFiletype(p.Rank(), P, blockcount, blocklen)
		if err != nil {
			panic(err)
		}
		if err := f.SetView(0, datatype.Byte, ft); err != nil {
			panic(err)
		}
		buf := make([]byte, d)
		for i := 0; i < b.N; i++ {
			if _, err := f.WriteAtAll(0, d, datatype.Byte, buf); err != nil {
				panic(err)
			}
			if _, err := f.ReadAtAll(0, d, datatype.Byte, buf); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
