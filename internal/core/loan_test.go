package core

import (
	"bytes"
	"cmp"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/datatype"
	"repro/internal/fotf"
	"repro/internal/pool"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// The typed loan: in-process, a listless AP lends every IOP whose domain
// meets its byte range its user buffer and compiled memtype, once per
// collective, and that IOP moves the AP's shares in place as it moves its
// own.  The tests below hold the protocol (every loan sent is taken, and
// a failed collective ends the loan) and the rule for reads (a
// destination whose data bytes meet is never filled in place).

// TestLoanSpansAViewGap: rank 0's view holds the head and the tail of the
// file and nothing between them, so its byte range meets the middle IOP's
// domain, which holds none of its data.  Every view is 8-byte pieces with
// 8-byte holes, page-dense, so that every window is buffered and the IOPs
// move the lent shares.  The plan says that pair
// exchanges a loan — both ends ask it the same question — so the loan is
// sent and taken, and a second collective, from fresh buffers, does not
// meet a stale one: both writes leave the oracle's file, both reads fill
// the oracle's bytes, and the world ends balanced with the loans counted.
// Fileviews that decline compilation exchange the same loans as pack
// loans and send their shares as chunks.
func TestLoanSpansAViewGap(t *testing.T) {
	defer testutil.LeakCheck(t)()
	const P, L = 3, 6000
	// pieces holds n data bytes in 2n bytes of file.
	pieces := func(n int64) *datatype.Type { return hvecBytes(n/8, 8, 16) }
	view := func(rank int) (int64, *datatype.Type) {
		if rank == 0 {
			ends := mustType(datatype.Hindexed([]int64{1, 1}, []int64{0, 5 * L}, pieces(L/2)))
			return 0, mustType(datatype.Resized(ends, 0, 6*L))
		}
		at := mustType(datatype.Hindexed([]int64{1}, []int64{int64(2*rank-1) * L}, pieces(L)))
		return 0, mustType(datatype.Resized(at, 0, 6*L))
	}
	// Rank 0 lends to IOPs 1 (the gap) and 2, rank 1 to IOP 0, rank 2 to
	// IOP 1; four collectives.
	const loans = 4 * 4
	for _, c := range []struct {
		name string
		mem  *datatype.Type
		view viewFn
	}{
		{"contiguous", datatype.Byte, view},
		{"holey", holeyDouble(), view},
		{"declined", holeyDouble(), declinedViews(t, P, view)},
	} {
		var oracles [2]oracle
		for round := range oracles {
			data := make([][]byte, P)
			for rank := range data {
				data[rank] = pattern(10*round+rank, L)
			}
			oracles[round] = flat(c.view, func(int) *datatype.Type { return c.mem }, 0, data)
		}
		res := world{P: P, checked: true, opts: Options{collBufSize: 2048}}.run(t, oracles[0].file, func(r rank) {
			rk := r.p.Rank()
			disp, ft := c.view(rk)
			if err := r.f.SetView(disp, datatype.Byte, ft); err != nil {
				panic(err)
			}
			for round, o := range oracles {
				if _, err := r.f.WriteAtAll(0, o.count[rk], c.mem, bytes.Clone(o.bufs[rk])); err != nil {
					panic(err)
				}
				r.p.Barrier()
				if rk == 0 && !bytes.Equal(flattenBackend(t, r.f.sh.b), o.file) {
					panic(fmt.Sprintf("write %d: the file differs from the oracle", round))
				}
				r.p.Barrier()
				got := bytes.Repeat([]byte{0xEE}, len(o.bufs[rk]))
				if _, err := r.f.ReadAtAll(0, o.count[rk], c.mem, got); err != nil || !bytes.Equal(got, o.reads[rk]) {
					panic(fmt.Sprintf("read %d, rank %d: %v, or the buffer differs from the oracle's", round, rk, err))
				}
			}
			if r.f.Stats.VectoredWrites+r.f.Stats.VectoredReads != 0 {
				panic(fmt.Sprintf("rank %d moved a direct window: the test runs the wrong windows", rk))
			}
		})
		if comm := res.comm; comm.Refs != loans || comm.Messages != comm.Received || comm.Bytes != comm.BytesReceived {
			t.Errorf("%s: %+v; want %d loans and every message sent taken", c.name, comm, loans)
		}
	}
}

// TestLentReadFaultEndsTheLoan: a read fails in rank 0's second read call,
// in a window of either kind — buffered over 8-byte runs, while the IOPs
// fill the ranks' lent buffers in place, or direct over 16 KiB ones,
// which every rank reads into its own buffer.  Every rank returns the
// same CollectiveError, and then at once overwrites the buffer it read
// into: under -race, no goroutine of the failed collective may still be
// writing it.  The next read on the same handles fills the buffers right.
// Each rank mounts the file through a Faulty of its own, so that the fault
// is armed in one rank's calls however the ranks' calls interleave.
func TestLentReadFaultEndsTheLoan(t *testing.T) {
	for _, g := range []dwGeom{
		{name: "buffered", P: 2, d: 512 * 8, collBuf: 1024, view: stridedView(2, 512, 8, 8), mem: hvecBytes(512, 8, 16)},
		dwGeoms()[3], // 16 KiB runs: direct windows
	} {
		checkLeaks := testutil.LeakCheck(t)
		o := g.oracle(0)
		errs := make([]error, g.P)
		world{P: g.P, backend: "faulty", checked: true, opts: Options{collBufSize: g.collBuf}}.run(t, nil, func(r rank) {
			rk := r.p.Rank()
			disp, ft := g.view(rk)
			if err := r.f.SetView(disp, datatype.Byte, ft); err != nil {
				panic(err)
			}
			if _, err := r.f.WriteAtAll(0, o.count[rk], g.mem, o.bufs[rk]); err != nil {
				panic(err)
			}
			if rk == 0 {
				r.fb.FailReads(2) // rank 0 makes more read calls than that
			}
			r.p.Barrier()
			buf := make([]byte, len(o.bufs[rk]))
			_, errs[rk] = r.f.ReadAtAll(0, o.count[rk], g.mem, buf)
			for i := range buf {
				buf[i] = 0xEE
			}
			r.p.Barrier()
			r.fb.Heal()
			r.p.Barrier()
			if _, err := r.f.ReadAtAll(0, o.count[rk], g.mem, buf); err != nil || !bytes.Equal(buf, o.reads[rk]) {
				panic(fmt.Sprintf("rank %d: post-heal read: %v, or it differs", rk, err))
			}
		})
		requireAgreement(t, g.name, errs, 0, PhaseIOPWindow)
		checkLeaks()
	}
}

// TestLentReadDrawsNoChunk: a two-rank read of the vec8 shape — blocks of
// 8 bytes, interleaved in the file, every other block in memory — and of
// blocks of 16 KiB in memory whose file runs are 64 bytes, interleaved,
// on a Checked pool.  In-process every share is filled in place, so a
// read draws no chunk: what the pool gives a read does not grow with its
// windows (it takes its two window buffers), and a window allocates
// nothing.  Over TCP the other rank's shares still travel as chunks, one
// per window.  The vec16k shape — 16 KiB blocks in the file too — takes
// direct windows, which every rank reads itself into its buffer: no chunk
// over either fabric.
func TestLentReadDrawsNoChunk(t *testing.T) {
	defer testutil.LeakCheck(t)()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const P = 2
	for _, c := range []struct {
		name                string
		block, small, large int64 // memory blocks per rank
		fileRun             int64 // 0: the memory blocks
		collBuf             int
	}{
		{"vec8", 8, 512, 2048, 0, 1024},
		{"mem16k-file64", 16384, 4, 16, 64, 32 << 10},
		{"vec16k", 16384, 4, 16, 0, 32 << 10},
	} {
		fileRun := cmp.Or(c.fileRun, c.block)
		direct := fileRun > storage.PageSize
		// Each IOP's domain is a block per rank per block of its own.
		windows := func(n int64) int64 { return n * c.block / int64(c.collBuf) }
		for _, tcp := range []bool{false, true} {
			label := fmt.Sprintf("%s/tcp=%v", c.name, tcp)
			bp := pool.NewChecked()
			var gets [2]int64
			var allocs [2]float64
			world{P: P, tcp: tcp, opts: Options{collBufSize: c.collBuf, pool: bp}}.run(t, nil, func(r rank) {
				disp, ft := stridedView(P, c.large*c.block/fileRun, fileRun, fileRun)(r.p.Rank())
				if err := r.f.SetView(disp, datatype.Byte, ft); err != nil {
					panic(err)
				}
				mt := mustType(datatype.Resized(mustType(datatype.Contiguous(c.block, datatype.Byte)), 0, 2*c.block))
				buf := make([]byte, 2*c.large*c.block)
				read := func(n int64) func() {
					return func() {
						if _, err := r.f.ReadAtAll(0, n, mt, buf); err != nil {
							panic(err)
						}
					}
				}
				if _, err := r.f.WriteAtAll(0, c.large, mt, buf); err != nil {
					panic(err)
				}
				read(c.large)() // warm: the pool's classes, the handles' arrays
				for i, n := range []int64{c.small, c.large} {
					r.p.Barrier()
					g0 := bp.Stats().Gets
					read(n)()
					r.p.Barrier()
					if r.p.Rank() == 0 {
						gets[i] = bp.Stats().Gets - g0
					}
				}
				if tcp || testutil.RaceEnabled {
					return
				}
				// Rank 0 counts what both ranks allocate, as in
				// TestListlessDirectWindowZeroAlloc.
				for i, n := range []int64{c.small, c.large} {
					if r.p.Rank() == 0 {
						allocs[i] = testing.AllocsPerRun(10, read(n))
					} else {
						for j := 0; j < 11; j++ {
							read(n)()
						}
					}
				}
			})
			extra := P * (windows(c.large) - windows(c.small)) // the windows the large read adds
			switch grown := gets[1] - gets[0]; {
			case (!tcp || direct) && grown != 0:
				t.Errorf("%s: a read of %d more windows drew %d more buffers (%d vs %d); a lent read draws no chunk",
					label, extra, grown, gets[1], gets[0])
			case tcp && !direct && grown < extra:
				t.Errorf("%s: a read of %d more windows drew %d more buffers; a read over a wire draws a chunk per window",
					label, extra, grown)
			}
			if perWindow := (allocs[1] - allocs[0]) / float64(extra); !tcp && perWindow > 0 {
				t.Errorf("%s: %.2f allocations per lent read window (small=%v large=%v)", label, perWindow, allocs[0], allocs[1])
			}
		}
	}
}

// TestOverlappingReadDestination: a memtype whose blocks overlap by half
// is a fine source — a write reads the shared bytes twice — but as a read
// destination its result depends on the order its bytes land in: an
// unpack in data order leaves the later of two data bytes at a shared
// offset.  The file is written from contiguous memory, so that the two
// bytes differ.  Such a buffer is never lent for a read, not even to the
// rank's own IOP, nor read into in place by the rank's own direct
// batches, whose shares it unpacks in data order among the chunks.  The
// read matches the flat oracle's unpack in buffered windows (8-byte
// blocks), direct ones (16 KiB blocks) and both in one access — the first
// half of the data in 64-byte file runs, the second in 16 KiB ones, so
// that a byte of a direct share and an earlier one of a buffered share
// meet in the buffer — over both fabrics, at P = 2 and P = 4, under -race.
// An independent read below SieveDensity, the owner mover's, leaves the
// later byte too, on both engines: read in place in data order where the
// engine walks view and memtype together, else unpacked in data order.
func TestOverlappingReadDestination(t *testing.T) {
	defer testutil.LeakCheck(t)()
	const n = 8 // memory blocks per rank
	overlapping := func(block int64) *datatype.Type {
		lens, displs := make([]int64, n), make([]int64, n)
		for i := range lens {
			lens[i], displs[i] = block, int64(i)*block/2
		}
		return mustType(datatype.Hindexed(lens, displs, datatype.Byte))
	}
	// readBack writes data from contiguous memory, reads it into mt and
	// holds the buffer to the oracle's in-order unpack.
	readBack := func(r rank, mt *datatype.Type, indep bool) (sent int64, st Stats) {
		data := pattern(r.p.Rank()+3, mt.Size())
		want, _ := userBuf(data, mt)
		got := bytes.Repeat([]byte{0xEE}, len(want))
		var err error
		if indep {
			_, err = r.f.WriteAt(0, mt.Size(), datatype.Byte, data)
		} else {
			_, err = r.f.WriteAtAll(0, mt.Size(), datatype.Byte, data)
		}
		if err != nil {
			panic(err)
		}
		s0, st0 := r.p.SentStats(), r.f.Stats
		if indep {
			_, err = r.f.ReadAt(0, 1, mt, got)
		} else {
			_, err = r.f.ReadAtAll(0, 1, mt, got)
		}
		if err != nil || !bytes.Equal(got, want) {
			panic(fmt.Sprintf("rank %d: %v, or the read differs from the in-order unpack of the data", r.p.Rank(), err))
		}
		return r.p.SentStats().Bytes - s0.Bytes, r.f.Stats.Sub(st0)
	}
	for _, c := range []struct {
		P     int
		block int64
		kind  string // "buffered", "direct" or "mixed"
	}{{2, 8, "buffered"}, {2, 16384, "direct"}, {2, 16384, "mixed"}, {4, 8, "buffered"}, {4, 16384, "direct"}, {4, 16384, "mixed"}} {
		P, block := c.P, c.block
		mt := overlapping(block)
		if p := fotf.Compile(mt); p == nil || p.Disjoint(1) {
			t.Fatalf("block %d: the memtype does not compile, or compiles as disjoint", block)
		}
		view := stridedView(P, n, block, block)
		if c.kind == "mixed" {
			half, run := n*block/2, int64(64)
			view = func(rank int) (int64, *datatype.Type) {
				both := mustType(datatype.Struct([]int64{1, 1}, []int64{int64(rank) * run, int64(P)*half + int64(rank)*block},
					[]*datatype.Type{hvecBytes(half/run, run, int64(P)*run), hvecBytes(n/2, block, int64(P)*block)}))
				return 0, mustType(datatype.Resized(both, 0, 2*int64(P)*half))
			}
		}
		// Two runs of every rank in a window of 8-byte blocks, which is
		// page-dense; a window of 16 KiB ones holds one run or none.
		collBuf := 2 * int64(P) * block
		if c.kind != "buffered" {
			collBuf = 2 * block
		}
		for _, tcp := range []bool{false, true} {
			world{P: P, tcp: tcp, checked: true, opts: Options{collBufSize: int(collBuf)}}.run(t, nil, func(r rank) {
				disp, ft := view(r.p.Rank())
				if err := r.f.SetView(disp, datatype.Byte, ft); err != nil {
					panic(err)
				}
				sent, st := readBack(r, mt, false)
				switch c.kind {
				case "buffered":
					// This rank's domain holds a P-th of each rank's data, and
					// it sends all of it as chunks, its own part included.
					if sent < mt.Size() || st.VectoredReads != 0 {
						panic(fmt.Sprintf("rank %d: the read sent %d payload bytes in %d vectored reads; its IOP filled an overlapping buffer in place", r.p.Rank(), sent, st.VectoredReads))
					}
				case "direct":
					// Every window is the ranks' own: no IOP window, no chunk.
					if sent >= block || st.SieveReads != 0 || st.VectoredReads == 0 {
						panic(fmt.Sprintf("rank %d: %d payload bytes, %d IOP windows and %d own batches; want only the ranks' own batches", r.p.Rank(), sent, st.SieveReads, st.VectoredReads))
					}
				default:
					if st.VectoredReads == 0 || st.SieveReads == 0 && r.p.Rank() < P/2 {
						panic(fmt.Sprintf("rank %d: %d own batches and %d IOP windows; want both kinds", r.p.Rank(), st.VectoredReads, st.SieveReads))
					}
				}
			})
		}
	}
	mt := overlapping(64)
	for _, eng := range engines {
		world{P: 1, checked: true, opts: Options{Engine: eng, SieveDensity: 0.25}}.run(t, nil, func(r rank) {
			if err := r.f.SetView(0, datatype.Byte, hvecBytes(mt.Size()/8, 8, 1024)); err != nil {
				panic(err)
			}
			if _, st := readBack(r, mt, true); st.DirectReads == 0 || st.SieveReads != 0 {
				panic("the independent read did not go direct")
			}
		})
	}
}
