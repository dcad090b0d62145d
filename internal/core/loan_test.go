package core

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/datatype"
	"repro/internal/fotf"
	"repro/internal/mpi"
	"repro/internal/pool"
	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/transport"
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
	g := dwGeom{P: P, d: L, collBuf: 2048, view: func(rank int) (int64, *datatype.Type) {
		if rank == 0 {
			ends := mustType(datatype.Hindexed([]int64{1, 1}, []int64{0, 5 * L}, pieces(L/2)))
			return 0, mustType(datatype.Resized(ends, 0, 6*L))
		}
		at := mustType(datatype.Hindexed([]int64{1}, []int64{int64(2*rank-1) * L}, pieces(L)))
		return 0, mustType(datatype.Resized(at, 0, 6*L))
	}}
	// Rank 0 lends to IOPs 1 (the gap) and 2, rank 1 to IOP 0, rank 2 to
	// IOP 1; four collectives.
	const loans = 4 * 4
	for _, c := range []struct {
		name string
		mem  *datatype.Type
		view func(int) (int64, *datatype.Type)
	}{
		{"contiguous", datatype.Byte, g.view},
		{"holey", holeyDouble(), g.view},
		{"declined", holeyDouble(), declinedViews(t, P, g.view)},
	} {
		g := g
		g.view = c.view
		count := g.d / c.mem.Size()
		bufLen := (count-1)*c.mem.Extent() + c.mem.TrueUB()
		data := [2][][]byte{}
		var want [2][]byte
		var wantReads [2][][]byte
		for round := range data {
			data[round] = make([][]byte, P)
			for rank := range data[round] {
				data[round][rank] = pattern(10*round+rank, g.d)
			}
			want[round], wantReads[round] = dwOracle(g, data[round])
		}
		be := storage.NewMem()
		if _, err := be.WriteAt(bytes.Repeat([]byte{dwBackground}, len(want[0])), 0); err != nil {
			t.Fatal(err)
		}
		sh := NewShared(be)
		opts := Options{CollBufSize: g.collBuf, Pool: pool.NewChecked()}
		comm, err := mpi.RunWithOptions(P, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
			f, err := Open(p, sh, opts)
			if err != nil {
				panic(err)
			}
			defer f.Close()
			disp, ft := g.view(p.Rank())
			if err := f.SetView(disp, datatype.Byte, ft); err != nil {
				panic(err)
			}
			for round := range data {
				buf := bytes.Repeat([]byte{0xEE}, int(bufLen))
				fotf.UnpackCount(buf, data[round][p.Rank()], count, c.mem, 0)
				if _, err := f.WriteAtAll(0, count, c.mem, buf); err != nil {
					panic(err)
				}
				p.Barrier()
				if p.Rank() == 0 && !bytes.Equal(be.Bytes(), want[round]) {
					panic(fmt.Sprintf("write %d: the file differs from the oracle", round))
				}
				p.Barrier()
				got := bytes.Repeat([]byte{0xEE}, int(bufLen))
				if _, err := f.ReadAtAll(0, count, c.mem, got); err != nil {
					panic(err)
				}
				wantBuf := bytes.Repeat([]byte{0xEE}, int(bufLen))
				fotf.UnpackCount(wantBuf, wantReads[round][p.Rank()], count, c.mem, 0)
				if !bytes.Equal(got, wantBuf) {
					panic(fmt.Sprintf("read %d, rank %d: the buffer differs from the oracle's", round, p.Rank()))
				}
			}
			if f.Stats.VectoredWrites+f.Stats.VectoredReads != 0 {
				panic(fmt.Sprintf("rank %d moved a direct window: the test runs the wrong windows", p.Rank()))
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if comm.Refs != loans || comm.Messages != comm.Received || comm.Bytes != comm.BytesReceived {
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
		mem := storage.NewMem()
		fbs := make([]*storage.Faulty, g.P)
		for r := range fbs {
			fbs[r] = storage.NewFaulty(mem)
		}
		count := g.d / g.mem.Size()
		errs := make([]error, g.P)
		_, err := mpi.RunWithOptions(g.P, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
			fb := fbs[p.Rank()]
			f, err := Open(p, NewShared(fb), Options{CollBufSize: g.collBuf, Pool: pool.NewChecked()})
			if err != nil {
				panic(err)
			}
			defer f.Close()
			disp, ft := g.view(p.Rank())
			if err := f.SetView(disp, datatype.Byte, ft); err != nil {
				panic(err)
			}
			data := make([]byte, (count-1)*g.mem.Extent()+g.mem.TrueUB())
			fotf.UnpackCount(data, pattern(p.Rank(), g.d), count, g.mem, 0)
			if _, err := f.WriteAtAll(0, count, g.mem, data); err != nil {
				panic(err)
			}
			if p.Rank() == 0 {
				fb.FailReads(2) // rank 0 makes more read calls than that
			}
			p.Barrier()
			buf := make([]byte, len(data))
			_, errs[p.Rank()] = f.ReadAtAll(0, count, g.mem, buf)
			for i := range buf {
				buf[i] = 0xEE
			}
			p.Barrier()
			if p.Rank() == 0 {
				fb.Heal()
			}
			p.Barrier()
			if _, err := f.ReadAtAll(0, count, g.mem, buf); err != nil {
				panic(fmt.Sprintf("post-heal read: %v", err))
			}
			want := bytes.Repeat([]byte{0xEE}, len(buf))
			fotf.UnpackCount(want, pattern(p.Rank(), g.d), count, g.mem, 0)
			if !bytes.Equal(buf, want) {
				panic(fmt.Sprintf("rank %d: post-heal read differs", p.Rank()))
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
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
		fileRun := c.fileRun
		if fileRun == 0 {
			fileRun = c.block
		}
		direct := fileRun > storage.PageSize
		// Each IOP's domain is a block per rank per block of its own.
		windows := func(n int64) int64 { return n * c.block / int64(c.collBuf) }
		for _, tcp := range []bool{false, true} {
			label := fmt.Sprintf("%s/tcp=%v", c.name, tcp)
			eps := transport.NewLoopback(P)
			if tcp {
				var err error
				if eps, err = transport.NewLocalTCPWorld(P, transport.TCPConfig{}); err != nil {
					t.Fatal(err)
				}
			}
			bp := pool.NewChecked()
			sh := NewShared(storage.NewMem())
			var gets [2]int64
			var allocs [2]float64
			_, err := mpi.RunOver(eps, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
				f, err := Open(p, sh, Options{CollBufSize: c.collBuf, Pool: bp})
				if err != nil {
					panic(err)
				}
				defer f.Close()
				disp, ft := stridedView(P, c.large*c.block/fileRun, fileRun, fileRun)(p.Rank())
				if err := f.SetView(disp, datatype.Byte, ft); err != nil {
					panic(err)
				}
				mt := mustType(datatype.Resized(mustType(datatype.Contiguous(c.block, datatype.Byte)), 0, 2*c.block))
				buf := make([]byte, 2*c.large*c.block)
				read := func(n int64) func() {
					return func() {
						if _, err := f.ReadAtAll(0, n, mt, buf); err != nil {
							panic(err)
						}
					}
				}
				if _, err := f.WriteAtAll(0, c.large, mt, buf); err != nil {
					panic(err)
				}
				read(c.large)() // warm: the pool's classes, the handles' arrays
				for i, n := range []int64{c.small, c.large} {
					p.Barrier()
					g0 := bp.Stats().Gets
					read(n)()
					p.Barrier()
					if p.Rank() == 0 {
						gets[i] = bp.Stats().Gets - g0
					}
				}
				if tcp || testutil.RaceEnabled {
					return
				}
				// Rank 0 counts what both ranks allocate, as in
				// TestListlessDirectWindowZeroAlloc.
				for i, n := range []int64{c.small, c.large} {
					if p.Rank() == 0 {
						allocs[i] = testing.AllocsPerRun(10, read(n))
					} else {
						for j := 0; j < 11; j++ {
							read(n)()
						}
					}
				}
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
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
	for _, c := range []struct {
		P     int
		block int64
		kind  string // "buffered", "direct" or "mixed"
	}{{2, 8, "buffered"}, {2, 16384, "direct"}, {2, 16384, "mixed"}, {4, 8, "buffered"}, {4, 16384, "direct"}, {4, 16384, "mixed"}} {
		P, block := c.P, c.block
		lens, displs := make([]int64, n), make([]int64, n)
		for i := range lens {
			lens[i], displs[i] = block, int64(i)*block/2
		}
		mt := mustType(datatype.Hindexed(lens, displs, datatype.Byte))
		if p := fotf.Compile(mt); p == nil || p.Disjoint(1) {
			t.Fatalf("block %d: the memtype does not compile, or compiles as disjoint", block)
		}
		view := stridedView(P, n, block, block)
		if c.kind == "mixed" {
			half, run := n*block/2, int64(64)
			view = func(rank int) (int64, *datatype.Type) {
				dense := hvecBytes(half/run, run, int64(P)*run)
				sparse := hvecBytes(n/2, block, int64(P)*block)
				both := mustType(datatype.Struct([]int64{1, 1}, []int64{int64(rank) * run, int64(P)*half + int64(rank)*block},
					[]*datatype.Type{dense, sparse}))
				return 0, mustType(datatype.Resized(both, 0, 2*int64(P)*half))
			}
		}
		for _, tcp := range []bool{false, true} {
			label := fmt.Sprintf("P=%d/block=%d/%s/tcp=%v", P, block, c.kind, tcp)
			eps := transport.NewLoopback(P)
			if tcp {
				var err error
				if eps, err = transport.NewLocalTCPWorld(P, transport.TCPConfig{}); err != nil {
					t.Fatal(err)
				}
			}
			sh := NewShared(storage.NewMem())
			_, err := mpi.RunOver(eps, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
				// Two runs of every rank in a window of 8-byte blocks, which is
				// page-dense; a window of 16 KiB ones holds one run or none.
				collBuf := 2 * int64(P) * block
				if c.kind != "buffered" {
					collBuf = 2 * block
				}
				f, err := Open(p, sh, Options{CollBufSize: int(collBuf), Pool: pool.NewChecked()})
				if err != nil {
					panic(err)
				}
				defer f.Close()
				disp, ft := view(p.Rank())
				if err := f.SetView(disp, datatype.Byte, ft); err != nil {
					panic(err)
				}
				// Data whose bytes differ where the memtype's meet, written
				// from contiguous memory: a read that unpacked out of data
				// order would leave an earlier byte.
				data := pattern(p.Rank()+3, mt.Size())
				if _, err := f.WriteAtAll(0, mt.Size(), datatype.Byte, data); err != nil {
					panic(err)
				}
				want := bytes.Repeat([]byte{0xEE}, int(mt.TrueUB()))
				fotf.UnpackCount(want, data, 1, mt, 0)
				got := bytes.Repeat([]byte{0xEE}, len(want))
				s0, st0 := p.SentStats(), f.Stats
				if _, err := f.ReadAtAll(0, 1, mt, got); err != nil {
					panic(err)
				}
				if !bytes.Equal(got, want) {
					panic(fmt.Sprintf("rank %d: the read differs from the in-order unpack of the data", p.Rank()))
				}
				sent, st := p.SentStats().Bytes-s0.Bytes, f.Stats.Sub(st0)
				switch c.kind {
				case "buffered":
					// This rank's domain holds a P-th of each rank's data, and
					// it sends all of it as chunks, its own part included.
					if sent < mt.Size() || st.VectoredReads != 0 {
						panic(fmt.Sprintf("rank %d: the read sent %d payload bytes in %d vectored reads; its IOP filled an overlapping buffer in place", p.Rank(), sent, st.VectoredReads))
					}
				case "direct":
					// Every window is the ranks' own: no IOP window, no chunk.
					if sent >= block || st.SieveReads != 0 || st.VectoredReads == 0 {
						panic(fmt.Sprintf("rank %d: %d payload bytes, %d IOP windows and %d own batches; want only the ranks' own batches", p.Rank(), sent, st.SieveReads, st.VectoredReads))
					}
				default:
					if st.VectoredReads == 0 || st.SieveReads == 0 && p.Rank() < P/2 {
						panic(fmt.Sprintf("rank %d: %d own batches and %d IOP windows; want both kinds", p.Rank(), st.VectoredReads, st.SieveReads))
					}
				}
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
	}

	lens, displs := make([]int64, n), make([]int64, n)
	for i := range lens {
		lens[i], displs[i] = 64, int64(i)*32
	}
	mt := mustType(datatype.Hindexed(lens, displs, datatype.Byte))
	for _, eng := range []Engine{Listless, ListBased} {
		_, err := mpi.Run(1, func(p *mpi.Proc) {
			f, err := Open(p, NewShared(storage.NewMem()), Options{Engine: eng, SieveDensity: 0.25, Pool: pool.NewChecked()})
			if err != nil {
				panic(err)
			}
			defer f.Close()
			if err := f.SetView(0, datatype.Byte, hvecBytes(mt.Size()/8, 8, 1024)); err != nil {
				panic(err)
			}
			data := pattern(5, mt.Size())
			if _, err := f.WriteAt(0, mt.Size(), datatype.Byte, data); err != nil {
				panic(err)
			}
			want := bytes.Repeat([]byte{0xEE}, int(mt.TrueUB()))
			fotf.UnpackCount(want, data, 1, mt, 0)
			got := bytes.Repeat([]byte{0xEE}, len(want))
			st0 := f.Stats
			if _, err := f.ReadAt(0, 1, mt, got); err != nil {
				panic(err)
			}
			if st := f.Stats.Sub(st0); st.DirectReads == 0 || st.SieveReads != 0 {
				panic("the independent read did not go direct")
			}
			if !bytes.Equal(got, want) {
				panic("the independent read differs from the in-order unpack of the data")
			}
		})
		if err != nil {
			t.Fatalf("independent %v: %v", eng, err)
		}
	}
}
