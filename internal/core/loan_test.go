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
// domain, which holds none of its data.  The plan says that pair
// exchanges a loan — both ends ask it the same question — so the loan is
// sent and taken, and a second collective, from fresh buffers, does not
// meet a stale one: both writes leave the oracle's file, both reads fill
// the oracle's bytes, and the world ends balanced with the loans counted.
// Fileviews that decline compilation exchange the same loans as pack
// loans and send their shares as chunks.
func TestLoanSpansAViewGap(t *testing.T) {
	defer testutil.LeakCheck(t)()
	const P, L = 3, 6000
	g := dwGeom{P: P, d: L, collBuf: 2048, view: func(rank int) (int64, *datatype.Type) {
		if rank == 0 {
			ends := mustType(datatype.Hindexed([]int64{L / 2, L / 2}, []int64{0, 5 * L / 2}, datatype.Byte))
			return 0, mustType(datatype.Resized(ends, 0, 3*L))
		}
		return int64(2*rank-1) * L / 2, mustType(datatype.Resized(mustType(datatype.Contiguous(L, datatype.Byte)), 0, 3*L))
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
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if comm.Refs != loans || comm.Messages != comm.Received || comm.Bytes != comm.BytesReceived {
			t.Errorf("%s: %+v; want %d loans and every message sent taken", c.name, comm, loans)
		}
	}
}

// TestLentReadFaultEndsTheLoan: a read fails in a window of either kind —
// buffered over 8-byte runs, direct over 16 KiB ones — while the IOPs
// fill the ranks' lent buffers in place.  Every rank returns the same
// CollectiveError, and then at once overwrites the buffer it lent: under
// -race, no goroutine of the failed collective may still be writing it.
// The next read on the same handles fills the buffers right.
func TestLentReadFaultEndsTheLoan(t *testing.T) {
	for _, g := range []dwGeom{
		{name: "buffered", P: 2, d: 512 * 8, collBuf: 1024, view: stridedView(2, 512, 8, 8), mem: hvecBytes(512, 8, 16)},
		dwGeoms()[3], // 16 KiB runs: direct windows
	} {
		checkLeaks := testutil.LeakCheck(t)
		fb := storage.NewFaulty(storage.NewMem())
		sh := NewShared(fb)
		count := g.d / g.mem.Size()
		errs := make([]error, g.P)
		_, err := mpi.RunWithOptions(g.P, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
			f, err := Open(p, sh, Options{CollBufSize: g.collBuf, Pool: pool.NewChecked()})
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
				fb.FailReads(2) // every IOP has more windows than that
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

// TestLentReadDrawsNoChunk: a two-rank read of the vec8 and the vec16k
// shape — blocks of 8 bytes and of 16 KiB, interleaved in the file, every
// other block in memory — on a Checked pool.  In-process every share is
// filled in place, so a read draws no chunk: what the pool gives a read
// does not grow with its windows (vec8 takes its two window buffers,
// vec16k's direct windows nothing), and a window allocates nothing.  Over
// TCP the other rank's shares still travel as chunks, one per window.
func TestLentReadDrawsNoChunk(t *testing.T) {
	defer testutil.LeakCheck(t)()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const P = 2
	for _, c := range []struct {
		name                string
		block, small, large int64 // blocks per rank
		collBuf             int
	}{
		{"vec8", 8, 512, 2048, 1024},
		{"vec16k", 16384, 4, 16, 32 << 10},
	} {
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
				disp, ft := stridedView(P, c.large, c.block, c.block)(p.Rank())
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
			case !tcp && grown != 0:
				t.Errorf("%s: a read of %d more windows drew %d more buffers (%d vs %d); a lent read draws no chunk",
					label, extra, grown, gets[1], gets[0])
			case tcp && grown < extra:
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
// offset.  Such a buffer is never lent for a read, not even to the
// rank's own IOP, and the read matches the flat oracle's unpack in
// buffered and direct windows alike, over both fabrics, under -race.
func TestOverlappingReadDestination(t *testing.T) {
	defer testutil.LeakCheck(t)()
	const P = 2
	for _, block := range []int64{8, 16384} {
		const n = 8 // blocks per rank
		lens, displs := make([]int64, n), make([]int64, n)
		for i := range lens {
			lens[i], displs[i] = block, int64(i)*block/2
		}
		mt := mustType(datatype.Hindexed(lens, displs, datatype.Byte))
		if p := fotf.Compile(mt); p == nil || p.Disjoint(1) {
			t.Fatalf("block %d: the memtype does not compile, or compiles as disjoint", block)
		}
		for _, tcp := range []bool{false, true} {
			label := fmt.Sprintf("block=%d/tcp=%v", block, tcp)
			eps := transport.NewLoopback(P)
			if tcp {
				var err error
				if eps, err = transport.NewLocalTCPWorld(P, transport.TCPConfig{}); err != nil {
					t.Fatal(err)
				}
			}
			sh := NewShared(storage.NewMem())
			_, err := mpi.RunOver(eps, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
				f, err := Open(p, sh, Options{CollBufSize: int(2 * block), Pool: pool.NewChecked()})
				if err != nil {
					panic(err)
				}
				defer f.Close()
				disp, ft := stridedView(P, n, block, block)(p.Rank())
				if err := f.SetView(disp, datatype.Byte, ft); err != nil {
					panic(err)
				}
				src := pattern(p.Rank()+3, mt.TrueUB())
				if _, err := f.WriteAtAll(0, 1, mt, src); err != nil {
					panic(err)
				}
				// What the write put in the file: the source packed in data order.
				data := make([]byte, mt.Size())
				fotf.PackCount(data, src, 1, mt, 0)
				want := bytes.Repeat([]byte{0xEE}, len(src))
				fotf.UnpackCount(want, data, 1, mt, 0)
				got := bytes.Repeat([]byte{0xEE}, len(src))
				s0 := p.SentStats()
				if _, err := f.ReadAtAll(0, 1, mt, got); err != nil {
					panic(err)
				}
				if !bytes.Equal(got, want) {
					panic(fmt.Sprintf("rank %d: the read differs from the in-order unpack of the data", p.Rank()))
				}
				// This rank's domain holds half of each rank's data, and it
				// sends all of it as chunks, its own half included.
				if sent := p.SentStats().Bytes - s0.Bytes; sent < mt.Size() {
					panic(fmt.Sprintf("rank %d: the read sent %d payload bytes; its IOP filled an overlapping buffer in place", p.Rank(), sent))
				}
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
	}
}
