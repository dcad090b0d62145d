package core

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/datatype"
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
	allocWinSize  = 4096 // collBufSize: small windows, many of them
	allocBlocklen = 64   // holey vector: 50% density, pre-reads happen
)

// allocFiletype is the holey fileview: every other allocBlocklen-byte
// block, so a write window is never fully covered and the pipelined
// loop exercises its pre-read path too.
func allocFiletype(blocks int64) *datatype.Type {
	return mustType(datatype.Hvector(blocks, allocBlocklen, 2*allocBlocklen, datatype.Byte))
}

// allocView installs allocFiletype.
func allocView(f *File, blocks int64) error {
	return f.SetView(0, datatype.Byte, allocFiletype(blocks))
}

// measureCollective returns the average allocations of one collective
// access of d data bytes, as d/mt.Size() instances of mt, in an
// already-warm world.
func measureCollective(t *testing.T, f *File, buf []byte, d int64, mt *datatype.Type, write bool) float64 {
	t.Helper()
	return testing.AllocsPerRun(10, func() {
		var err error
		if write {
			_, err = f.WriteAtAll(0, d/mt.Size(), mt, buf)
		} else {
			_, err = f.ReadAtAll(0, d/mt.Size(), mt, buf)
		}
		if err != nil {
			t.Errorf("collective: %v", err)
		}
	})
}

// testWindowAllocFree measures the per-window allocations of a one-rank
// collective.  The rank is the IOP of all of its own data.  The listless
// engine moves that share between user buffer and window itself — through
// contiguous memory (holey=false) by the fileview's program alone, through
// holeyDouble fused with the memtype's — and no chunk exists; staged (a
// fileview that declines compilation: the walk, no program to run against
// the user buffer) it packs the share into a pooled chunk and sends it to
// the rank's own mailbox, window by window.  With epochs the backend is an
// epochMem, so that a write's windows stage and the epoch keeps them.
func testWindowAllocFree(t *testing.T, engine Engine, write, holey, staged, epochs bool, wantPerWindow float64) {
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

	ft := allocFiletype(dLarge / allocBlocklen)
	if staged {
		ft = declinedType(t, ft)
	}
	bp := pool.New()
	backend := map[bool]string{false: "mem", true: "epoch-mem"}[epochs]
	world{P: 1, backend: backend, opts: Options{Engine: engine, collBufSize: allocWinSize, pool: bp}}.run(t, nil, func(r rank) {
		f := r.f
		if err := f.SetView(0, datatype.Byte, ft); err != nil {
			panic(err)
		}
		mt, buf := datatype.Byte, make([]byte, 2*dLarge)
		if holey {
			mt = holeyDouble()
		}

		// Warm-up: grows the inbox queue to its high-water mark, fills
		// the buffer pool's classes, and populates the engine freelist.
		measureCollective(t, f, buf, dLarge, mt, true)
		measureCollective(t, f, buf, dLarge, mt, false)

		sS := bp.Stats()
		aSmall := measureCollective(t, f, buf, dSmall, mt, write)
		s0 := bp.Stats()
		aLarge := measureCollective(t, f, buf, dLarge, mt, write)
		s1 := bp.Stats()
		label := fmt.Sprintf("engine %v write=%v holey=%v staged=%v epochs=%v", engine, write, holey, staged, epochs)
		perWindow := (aLarge - aSmall) / (winLarge - winSmall)
		if perWindow > wantPerWindow {
			t.Errorf("%s: %.2f allocs per steady-state window (small=%v large=%v), want <= %v",
				label, perWindow, aSmall, aLarge, wantPerWindow)
		}
		// The zero above is not vacuous.  Staged, every window does draw
		// a chunk and hand it back, and the pool serves each one without
		// allocating; fused, the two window buffers of a collective are
		// all it draws, however many windows it has — or, when its windows
		// stage under an epoch, which keeps them, one buffer per window.
		gets, puts := s1.Gets-s0.Gets, s1.Puts-s0.Puts
		var kept int64 // buffers per window an epoch keeps, over AllocsPerRun's 11 runs
		if epochs && write {
			kept = (winLarge - winSmall) * 11
		}
		if fused := engine == Listless && !staged; fused && (gets != s0.Gets-sS.Gets+kept || gets == 0) {
			t.Errorf("%s: %d pool gets over %d-window collectives, %d over %d-window ones: the self share still draws chunks",
				label, gets, winLarge, s0.Gets-sS.Gets, winSmall)
		} else if !fused && (gets < 10*winLarge || puts < 10*winLarge) {
			t.Errorf("%s: %d gets, %d puts over %d-window collectives: the windows do not go through the pool",
				label, gets, puts, winLarge)
		}
		if s1.Misses != s0.Misses || s1.BytesAlloc != s0.BytesAlloc {
			t.Errorf("%s: warm pool missed %d times (%d B) in steady state",
				label, s1.Misses-s0.Misses, s1.BytesAlloc-s0.BytesAlloc)
		}
	})
}

// TestListlessWindowZeroAlloc: the listless engine's steady-state
// window loop — pooled buffers, freelisted window descriptors, persistent
// pipeline workers — performs zero allocations per window, from
// contiguous memory and from a holey layout, and also with the self
// share staged through recycled chunks; a write's too when its windows
// stage under an epoch, which keeps every window buffer and chunk until
// it ends.
func TestListlessWindowZeroAlloc(t *testing.T) {
	for _, write := range []bool{true, false} {
		for _, holey := range []bool{false, true} {
			testWindowAllocFree(t, Listless, write, holey, false, false, 0)
		}
		testWindowAllocFree(t, Listless, write, false, true, false, 0)
	}
	for _, holey := range []bool{false, true} {
		testWindowAllocFree(t, Listless, true, holey, false, true, 0)
	}
	testWindowAllocFree(t, Listless, true, false, true, true, 0)
}

// TestListlessDirectWindowZeroAlloc is the twin of the test above over
// direct windows, in a two-rank world: file runs of 6 KiB, 12 KiB apart
// per rank, in 32 KiB windows, from memory whose every run is a page or
// longer — 6 KiB runs 12 KiB apart on rank 0; on rank 1 a contiguous
// buffer, or page-sized runs two pages apart, which cut each file run in
// two.  Every window is moved by its owners: no IOP counts one, and each
// rank writes or reads its share of each by one vectored call over its
// user buffer.  After the first accesses — which size the handles'
// segment arrays — a window costs no allocation, and no chunk, window
// buffer or pack buffer is drawn at all.  The same holds over an epoch
// backend, whose staged batches lend it the user buffers.  From memory of
// 8-byte pieces on rank 1 (holeyDouble) the share goes through a pack
// buffer, which the warm pool serves without allocating.
func TestListlessDirectWindowZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const (
		P, run, win      = 2, 6144, 32 << 10
		runsSmall        = 16 // per rank: 16*12 KiB of file, 6 windows in all
		runsLarge        = 64 // 24 windows
		winSmall         = runsSmall * P * run / win
		winLarge         = runsLarge * P * run / win
		measured, warmup = 10, 1 // what testing.AllocsPerRun runs
	)
	runs := func(n, pitch int64) *datatype.Type {
		return mustType(datatype.Resized(mustType(datatype.Contiguous(n, datatype.Byte)), 0, pitch))
	}
	for _, cell := range []struct {
		rank1          *datatype.Type
		epochs, packed bool
	}{{datatype.Byte, false, false}, {runs(storage.PageSize, 2*storage.PageSize), false, false}, {datatype.Byte, true, false}, {holeyDouble(), false, true}} {
		rank1 := cell.rank1
		mts := []*datatype.Type{runs(run, 2*run), rank1}
		bp := pool.New()
		backend := map[bool]string{false: "mem", true: "epoch-mem"}[cell.epochs]
		for _, write := range []bool{true, false} {
			label := fmt.Sprintf("rank 1 memtype %v, write=%v, epochs=%v", rank1, write, cell.epochs)
			world{P: P, backend: backend, opts: Options{collBufSize: win, pool: bp}}.run(t, make([]byte, runsLarge*P*run), func(r rank) {
				p, f := r.p, r.f
				disp, ft := stridedView(P, runsLarge, run, run)(p.Rank())
				if err := f.SetView(disp, datatype.Byte, ft); err != nil {
					panic(err)
				}
				// The same d on every rank, whatever its memtype.
				mt := mts[p.Rank()]
				countLarge := runsLarge * run / mt.Size()
				buf := make([]byte, (countLarge-1)*mt.Extent()+mt.TrueUB())
				op := func(runs int64) func() {
					count := runs * run / mt.Size()
					return func() {
						var err error
						if write {
							_, err = f.WriteAtAll(0, count, mt, buf)
						} else {
							_, err = f.ReadAtAll(0, count, mt, buf)
						}
						if err != nil {
							t.Errorf("collective: %v", err)
						}
					}
				}
				// Every rank runs each collective as often as rank 0's
				// AllocsPerRun does; rank 0 counts what all of them allocate.
				measure := func(runs int64) (allocs float64) {
					if p.Rank() == 0 {
						return testing.AllocsPerRun(measured, op(runs))
					}
					for i := 0; i < measured+warmup; i++ {
						op(runs)()
					}
					return 0
				}
				op(runsLarge)() // the file, the arrays' high-water marks, the pool's classes
				measure(runsLarge)
				s0, st0 := bp.Stats(), f.Stats
				aSmall := measure(runsSmall)
				aLarge := measure(runsLarge)
				s1, st := bp.Stats(), f.Stats.Sub(st0)
				if p.Rank() != 0 {
					return
				}
				if perWindow := (aLarge - aSmall) / (winLarge - winSmall); perWindow > 0 {
					t.Errorf("%s: %.2f allocs per steady-state direct window (small=%v large=%v)", label, perWindow, aSmall, aLarge)
				}
				windows, vectored := st.SieveWrites+st.SieveReads, st.VectoredWrites+st.VectoredReads
				if windows != 0 || vectored == 0 {
					t.Errorf("%s: %d IOP windows and %d own batches; the test measures the wrong loop", label, windows, vectored)
				}
				if gets := s1.Gets - s0.Gets; s1.Misses != s0.Misses || (gets != 0) != cell.packed {
					t.Errorf("%s: warm pool: %d gets, %d misses in steady state; a share draws a pack buffer exactly when its memory is page-dense (packed=%v)",
						label, gets, s1.Misses-s0.Misses, cell.packed)
				}
			})
		}
	}
}

// TestIndependentFusedDrawsNoPackBuffer: an independent nc-nc access
// sieves through one pooled window; staged — by the list-based engine,
// or through a fileview that declines compilation — it borrows a pack
// buffer beside it, and fused — both programs live — it must not.
func TestIndependentFusedDrawsNoPackBuffer(t *testing.T) {
	const d = int64(8 * allocWinSize / 2)
	ft := allocFiletype(d / allocBlocklen)
	for _, c := range []struct {
		name string
		opts Options
		ft   *datatype.Type
		gets int64
	}{
		{"fused", Options{}, ft, 1},
		{"declined", Options{}, declinedType(t, ft), 2},
		{"list-based", Options{Engine: ListBased}, ft, 2},
	} {
		bp := pool.New()
		c.opts.pool, c.opts.sieveBufSize = bp, allocWinSize
		world{P: 1, opts: c.opts}.run(t, nil, func(r rank) {
			f := r.f
			if err := f.SetView(0, datatype.Byte, c.ft); err != nil {
				panic(err)
			}
			mt, buf := holeyDouble(), make([]byte, 2*d)
			for _, write := range []bool{true, false} {
				s0 := bp.Stats()
				var err error
				if write {
					_, err = f.WriteAt(0, d/8, mt, buf)
				} else {
					_, err = f.ReadAt(0, d/8, mt, buf)
				}
				if err != nil {
					panic(err)
				}
				if s1 := bp.Stats(); s1.Gets-s0.Gets != c.gets || s1.Puts-s0.Puts != c.gets {
					t.Errorf("%s write=%v: %d pool gets, %d puts per access, want %d of each",
						c.name, write, s1.Gets-s0.Gets, s1.Puts-s0.Puts, c.gets)
				}
			}
		})
	}
}

// TestDirectPathFusedDrawsNoPackBuffer: the offset-list branch of a
// sparse independent nc-nc access packs into a pooled buffer and lists
// segments over the copy when it must; with both programs live the
// segments point into the user buffer and the access draws nothing from
// the pool.  Either way the bytes arrive, and the holes of the user
// buffer are left alone.
func TestDirectPathFusedDrawsNoPackBuffer(t *testing.T) {
	const runs = 512
	sparse := mustType(datatype.Vector(runs, 8, 1024, datatype.Byte))
	for _, c := range []struct {
		name string
		opts Options
		ft   *datatype.Type
		gets int64
	}{
		{"fused", Options{}, sparse, 0},
		{"declined", Options{}, declinedType(t, sparse), 1},
		{"list-based", Options{Engine: ListBased}, sparse, 1},
	} {
		bp := pool.New()
		c.opts.pool, c.opts.SieveDensity = bp, 0.25
		world{P: 1, opts: c.opts}.run(t, nil, func(r rank) {
			f := r.f
			if err := f.SetView(0, datatype.Byte, c.ft); err != nil {
				panic(err)
			}
			mt, buf := holeyDouble(), pattern(3, 16*runs)
			got := bytes.Repeat([]byte{0xEE}, len(buf))
			for _, write := range []bool{true, false} {
				s0 := bp.Stats()
				var err error
				if write {
					_, err = f.WriteAt(0, runs, mt, buf)
				} else {
					_, err = f.ReadAt(0, runs, mt, got)
				}
				if err != nil {
					panic(err)
				}
				if s1 := bp.Stats(); s1.Gets-s0.Gets != c.gets || s1.Puts-s0.Puts != c.gets {
					t.Errorf("%s write=%v: %d pool gets, %d puts per access, want %d of each",
						c.name, write, s1.Gets-s0.Gets, s1.Puts-s0.Puts, c.gets)
				}
			}
			if f.Stats.DirectWrites != runs || f.Stats.DirectReads != runs || f.Stats.SieveWrites != 0 {
				t.Errorf("%s: the accesses did not take the offset-list direct path: %+v", c.name, f.Stats)
			}
			for i := range got {
				if hole := i%16 >= 8; !hole && got[i] != buf[i] || hole && got[i] != 0xEE {
					t.Fatalf("%s: read-back byte %d = %#x (hole=%v)", c.name, i, got[i], hole)
				}
			}
		})
	}
}

// TestDirectPathKeepsItsSegmentArray: the offset-list batch of a sparse
// direct access is as large as the data it describes (32 bytes per
// 8-byte run here), so it stays with the handle — a second access of
// the same shape allocates none of it again, and what the handle keeps
// references no buffer of the access.
func TestDirectPathKeepsItsSegmentArray(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 4096
	sparse, err := datatype.Vector(runs, 8, 1024, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	world{P: 1, opts: Options{SieveDensity: 0.25}}.run(t, nil, func(r rank) {
		f := r.f
		if err := f.SetView(0, datatype.Byte, sparse); err != nil {
			panic(err)
		}
		buf := make([]byte, runs*8)
		access := func(write bool) int64 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if write {
				_, err = f.WriteAt(0, runs*8, datatype.Byte, buf)
			} else {
				_, err = f.ReadAt(0, runs*8, datatype.Byte, buf)
			}
			runtime.ReadMemStats(&m1)
			if err != nil {
				panic(err)
			}
			return int64(m1.TotalAlloc - m0.TotalAlloc)
		}
		access(true) // builds the file and the array
		if f.Stats.DirectWrites != runs {
			panic("the access did not take the offset-list direct path")
		}
		const segBytes = runs * 32 // one storage.Segment per run
		for _, write := range []bool{false, true} {
			if got := access(write); got > segBytes/8 {
				t.Errorf("write=%v: a repeated direct access allocates %d B; its segment array alone is %d B",
					write, got, segBytes)
			}
		}
		if len(f.segs) != 0 || cap(f.segs) < runs {
			t.Errorf("handle keeps len %d cap %d segments between accesses, want 0 and >= %d", len(f.segs), cap(f.segs), runs)
		}
		for i, sg := range f.segs[:cap(f.segs)] {
			if sg.Buf != nil {
				t.Fatalf("kept segment %d still references a buffer of the finished access", i)
			}
		}
	})
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
	if s, l := len(datatype.Encode(small)), len(datatype.Encode(large)); l < 32*s || l < 8<<10 {
		t.Fatalf("encoded sizes %d and %d do not separate the cases", s, l)
	}
	world{P: 1, opts: Options{Engine: Listless, collBufSize: allocWinSize}}.run(t, nil, func(r rank) {
		f := r.f
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
		if slack := int64(len(datatype.Encode(large))) / 8; bl-bs > slack {
			t.Errorf("write+read allocates %d B with the large memtype, %d B with the small one: grows with the encoding (%d B)",
				bl, bs, len(datatype.Encode(large)))
		}
	})
}

// TestDecodedViewCollectedWithItsDerivedData: a decoded remote fileview
// that has been navigated, walked and given a program is referenced by
// nothing but the engine's view table, so the SetView that replaces the
// table frees the type and, with it, everything derived from it.  A
// fileview that declines compilation is remembered as declined, and its
// window copies walk the tree, which is the other user of the per-node
// index.
func TestDecodedViewCollectedWithItsDerivedData(t *testing.T) {
	for _, declined := range []bool{false, true} {
		ft := byteBlocks(257, 24)
		if declined {
			ft = declinedType(t, ft)
		}
		collected := make(chan struct{})
		world{P: 1, opts: Options{Engine: Listless, collBufSize: allocWinSize}}.run(t, nil, func(r rank) {
			f := r.f
			if err := f.SetView(0, datatype.Byte, ft); err != nil {
				panic(err)
			}
			buf := make([]byte, ft.Size())
			if _, err := f.WriteAtAll(0, ft.Size(), datatype.Byte, buf); err != nil {
				panic(err)
			}
			decoded := f.eng.(*listlessEngine).remote[0].ftype
			dd := decoded.Derived()
			if e, ok := dd.Prog.Load().(*progEntry); decoded == ft || dd.Nav.Load() == nil || !ok || (e.prog == nil) != declined {
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
			t.Errorf("declined=%v: decoded fileview still reachable after the SetView that dropped it", declined)
		})
	}
}

// BenchmarkCollectiveWindow is the -benchmem benchmark of the
// steady-state window loop: P=4 nc-nc collective writes+reads.
func BenchmarkCollectiveWindow(b *testing.B) {
	const P, blockcount, blocklen = 4, 512, 64
	d := blockcount * int64(blocklen)
	b.ReportAllocs()
	world{P: P, opts: Options{Engine: Listless, collBufSize: 64 << 10}}.run(b, nil, func(r rank) {
		if err := r.f.SetView(0, datatype.Byte, noncontigTypeP(r.p.Rank(), P, blockcount, blocklen)); err != nil {
			panic(err)
		}
		buf := make([]byte, d)
		for i := 0; i < b.N; i++ {
			if _, err := r.f.WriteAtAll(0, d, datatype.Byte, buf); err != nil {
				panic(err)
			}
			if _, err := r.f.ReadAtAll(0, d, datatype.Byte, buf); err != nil {
				panic(err)
			}
		}
	})
}
