package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// Fault-tolerance harness: seeded multi-rank worlds with injected
// storage faults across engines × window-loop variants × read/write,
// asserting no deadlock (stall watchdog), no goroutine leak, unanimous
// error agreement, and byte-identical contents versus a fault-free
// oracle whenever the faults are survivable.

// watchdogTimeout bounds every faulted world in this file: a protocol
// bug shows up as an ErrStalled diagnostic, not a hung test run.
const watchdogTimeout = 10 * time.Second

// requireAgreement asserts that every rank returned the same
// rank-attributed CollectiveError and returns the agreed value.
func requireAgreement(t *testing.T, label string, errs []error, wantRank int, wantPhase string) {
	t.Helper()
	for r, e := range errs {
		ce, ok := AsCollectiveError(e)
		if !ok {
			t.Fatalf("%s: rank %d returned %v, want a CollectiveError", label, r, e)
		}
		if ce.Rank != wantRank || ce.Phase != wantPhase {
			t.Fatalf("%s: rank %d agreed on {rank %d, phase %s}, want {rank %d, phase %s}",
				label, r, ce.Rank, ce.Phase, wantRank, wantPhase)
		}
		if !errors.Is(e, storage.ErrPermanent) {
			t.Errorf("%s: rank %d error %v lost the permanent classification", label, r, e)
		}
	}
	if !errors.Is(errs[wantRank], storage.ErrInjected) {
		t.Errorf("%s: failing rank's error %v does not wrap the injected fault", label, errs[wantRank])
	}
}

// collOracle runs the same collective write on a clean Mem world and
// returns the resulting file bytes.
func collOracle(t *testing.T, eng Engine, P int, blockcount, blocklen int64) []byte {
	t.Helper()
	be := storage.NewMem()
	sh := NewShared(be)
	d := blockcount * blocklen
	_, err := mpi.Run(P, func(p *mpi.Proc) {
		f, err := Open(p, sh, Options{Engine: eng, CollBufSize: 128})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		if err := f.SetView(0, datatype.Byte, noncontigTypeP(p.Rank(), P, blockcount, blocklen)); err != nil {
			panic(err)
		}
		if _, err := f.WriteAtAll(0, d, datatype.Byte, pattern(p.Rank(), d)); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatalf("oracle world: %v", err)
	}
	return be.Bytes()
}

// TestCollectiveErrorAgreement is the acceptance scenario: a 4-rank
// collective read with a permanent fault injected into exactly one
// IOP's file domain must return the same wrapped CollectiveError
// (correct rank, correct phase) on every rank, without deadlock or
// goroutine leak — and an immediately following fault-free collective
// on the same File must produce correct bytes on both engines, through
// buffered windows and through direct ones.
func TestCollectiveErrorAgreement(t *testing.T) {
	const (
		P          = 4
		blockcount = 32
		failIOP    = 1
	)
	// 16-byte blocks: eight of them from four ranks in every 128-byte
	// window, which gathers them in its buffer.  256-byte blocks: a window
	// lies inside one block and, on the listless engine, is direct — the
	// faulted read is then a vectored one of the rank whose block it is,
	// and every rank reads a block in the faulted domain: rank 0 is the
	// lowest that fails.
	for _, blocklen := range []int64{16, 256} {
		testCollectiveErrorAgreement(t, P, blockcount, blocklen, failIOP)
	}
}

func testCollectiveErrorAgreement(t *testing.T, P int, blockcount, blocklen int64, failIOP int) {
	d := blockcount * blocklen
	domSize := d // gHi = P*d, split across P IOPs

	for _, eng := range []Engine{Listless, ListBased} {
		label := fmt.Sprintf("%v/blocklen=%d", eng, blocklen)
		checkLeaks := testutil.LeakCheck(t)

		fb := storage.NewFaulty(storage.NewMem())
		sh := NewShared(fb)
		errs := make([]error, P)
		reread := make([][]byte, P)
		_, err := mpi.RunWithOptions(P, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
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
			if direct := f.Stats.DirectWrites > 0; direct != (eng == Listless && blocklen >= 128) {
				panic(fmt.Sprintf("direct windows: %v", direct))
			}
			if p.Rank() == 0 {
				// Fault exactly IOP failIOP's file domain.
				fb.FailReadRange(int64(failIOP)*domSize, int64(failIOP+1)*domSize)
			}
			p.Barrier()
			_, errs[p.Rank()] = f.ReadAtAll(0, d, datatype.Byte, make([]byte, d))
			p.Barrier()
			if p.Rank() == 0 {
				fb.Heal()
			}
			p.Barrier()
			// The File must remain usable: a fault-free collective
			// right after the agreed failure.
			got := make([]byte, d)
			if _, err := f.ReadAtAll(0, d, datatype.Byte, got); err != nil {
				panic(fmt.Sprintf("post-fault read: %v", err))
			}
			if !bytes.Equal(got, data) {
				panic("post-fault collective read returned wrong bytes")
			}
			reread[p.Rank()] = got
		})
		if err != nil {
			t.Fatalf("%s: world error: %v", label, err)
		}
		failRank := failIOP
		if eng == Listless && blocklen >= 128 {
			failRank = 0
		}
		requireAgreement(t, label, errs, failRank, PhaseIOPWindow)
		want := collOracle(t, eng, P, blockcount, blocklen)
		if !bytes.Equal(fb.Backend.(*storage.Mem).Bytes(), want) {
			t.Errorf("%s: file bytes differ from fault-free oracle", label)
		}
		checkLeaks()
	}
}

// faultGeom is one access geometry of the fault matrix: who sees which
// part of the file, through what memory layout, and which IOP's domain
// the fault hits.
type faultGeom struct {
	name    string
	P       int
	failIOP int
	// view returns rank's fileview; every rank moves d data bytes.
	view func(rank int) (disp int64, ft *datatype.Type)
	d    int64
	// holey makes the memory layout non-contiguous too (8 data bytes in
	// every 16), which is what lets the listless engine fuse an IOP's own
	// share: with it the failing IOP below has nothing to receive or send.
	holey bool
	// rmw: the combined views leave holes, so a write pre-reads.
	rmw bool
	// direct: on the listless engine every window is direct, moved by the
	// ranks whose data it holds, each by one vectored call, and a fault in
	// the failing IOP's domain fails every rank with data there: the
	// lowest of them, failRank, is the one agreed on.
	direct   bool
	failRank int
}

// domain returns IOP i's file domain, as makePlan cuts it, given the
// file range [0, hi) the ranks touch.
func (g faultGeom) domain(i int, hi int64) (int64, int64) {
	dom := (hi + int64(g.P) - 1) / int64(g.P)
	return int64(i) * dom, min(int64(i+1)*dom, hi)
}

// userBuf lays d data bytes out as the geometry's memory layout wants
// them and returns the memtype, its count and the buffer.
func (g faultGeom) userBuf(data []byte) (*datatype.Type, int64, []byte) {
	if !g.holey {
		return datatype.Byte, g.d, data
	}
	elem, err := datatype.Resized(datatype.Double, 0, 16)
	if err != nil {
		panic(err)
	}
	buf := make([]byte, 2*len(data))
	for i := 0; i < len(data); i += 8 {
		copy(buf[2*i:], data[i:i+8])
	}
	return elem, g.d / 8, buf
}

// TestFaultCollectiveMatrix runs fault propagation across read/write ×
// both engines × access geometries, asserting unanimous agreement each
// time and full recovery after healing.  Beside the 4-rank interleaved
// access, whose failing IOP serves three other ranks, and one whose
// blocks are long enough for direct windows, two geometries
// make the failing IOP its own only contributor — one rank alone, and
// two ranks on disjoint halves of the file — through non-contiguous
// memory: on the listless engine that share is a fused copy with no
// message behind it, so the error agreement and its drain must not
// expect one, and on a read the share reaches the user buffer before the
// vote.
func TestFaultCollectiveMatrix(t *testing.T) {
	const blockcount, blocklen = 32, 16
	d := int64(blockcount * blocklen)
	half := noncontigTypeP(0, 2, blockcount, blocklen) // every other block of one half
	geoms := []faultGeom{
		{name: "interleaved/P=4", P: 4, failIOP: 2, d: d,
			view: func(rank int) (int64, *datatype.Type) { return 0, noncontigTypeP(rank, 4, blockcount, blocklen) }},
		{name: "self-only/P=1", P: 1, failIOP: 0, d: d, holey: true, rmw: true,
			view: func(int) (int64, *datatype.Type) { return 0, half }},
		{name: "disjoint-halves/P=2", P: 2, failIOP: 1, d: d, holey: true, rmw: true,
			view: func(rank int) (int64, *datatype.Type) { return int64(rank) * half.Extent(), half }},
		// Blocks four windows long: on the listless engine every window is
		// direct, so the faulted accesses are the vectored writes and reads
		// of the ranks themselves, over their user buffers: every rank has
		// blocks in IOP 1's domain.
		{name: "long-runs/P=2", P: 2, failIOP: 1, d: 8 * 512, direct: true, failRank: 0,
			view: func(rank int) (int64, *datatype.Type) { return 0, noncontigTypeP(rank, 2, 8, 512) }},
	}

	// world runs body on every rank of a fresh world over be, with the
	// geometry's view set.
	world := func(g faultGeom, eng Engine, be storage.Backend, body func(p *mpi.Proc, f *File, mt *datatype.Type, count int64, buf []byte)) error {
		sh := NewShared(be)
		_, err := mpi.RunWithOptions(g.P, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
			f, err := Open(p, sh, Options{Engine: eng, CollBufSize: 128})
			if err != nil {
				panic(err)
			}
			defer f.Close()
			disp, ft := g.view(p.Rank())
			if err := f.SetView(disp, datatype.Byte, ft); err != nil {
				panic(err)
			}
			mt, count, buf := g.userBuf(pattern(p.Rank(), g.d))
			body(p, f, mt, count, buf)
		})
		return err
	}

	for _, g := range geoms {
		for _, eng := range []Engine{Listless, ListBased} {
			// The fault-free file of this geometry, and the range touched.
			clean := storage.NewMem()
			if err := world(g, eng, clean, func(p *mpi.Proc, f *File, mt *datatype.Type, count int64, buf []byte) {
				sent := p.SentStats().Bytes
				if _, err := f.WriteAtAll(0, count, mt, buf); err != nil {
					panic(err)
				}
				// The cells below are only what they claim if the failing
				// IOP's own share really travels without a message.
				if sent = p.SentStats().Bytes - sent; g.holey && (eng == Listless) != (sent < g.d) {
					panic(fmt.Sprintf("%v sent %d payload bytes for %d bytes of own data", eng, sent, g.d))
				}
				if st := f.Stats; (st.SieveWrites == 0 && st.VectoredWrites > 0) != (g.direct && eng == Listless) {
					panic(fmt.Sprintf("%v moved %d IOP windows and %d own batches", eng, st.SieveWrites, st.VectoredWrites))
				}
			}); err != nil {
				t.Fatalf("%s/%v: oracle world: %v", g.name, eng, err)
			}
			want := clean.Bytes()
			lo, hi := g.domain(g.failIOP, int64(len(want)))

			ops := []string{"read", "write"}
			if g.rmw {
				ops = append(ops, "write-preread")
			}
			for _, op := range ops {
				label := fmt.Sprintf("%s/%v/%s", g.name, eng, op)
				checkLeaks := testutil.LeakCheck(t)

				fb := storage.NewFaulty(storage.NewMem())
				errs := make([]error, g.P)
				err := world(g, eng, fb, func(p *mpi.Proc, f *File, mt *datatype.Type, count int64, buf []byte) {
					if op != "write" {
						// Seed the file so the faulted read has data under it.
						if _, err := f.WriteAtAll(0, count, mt, buf); err != nil {
							panic(err)
						}
					}
					if p.Rank() == 0 {
						if op == "write" {
							fb.FailWriteRange(lo, hi)
						} else {
							fb.FailReadRange(lo, hi)
						}
					}
					p.Barrier()
					if op == "read" {
						_, errs[p.Rank()] = f.ReadAtAll(0, count, mt, make([]byte, len(buf)))
					} else {
						_, errs[p.Rank()] = f.WriteAtAll(0, count, mt, buf)
					}
					p.Barrier()
					if p.Rank() == 0 {
						fb.Heal()
					}
					p.Barrier()
					// Recovery: the same collective, fault-free, must
					// round-trip on the same File.
					if _, err := f.WriteAtAll(0, count, mt, buf); err != nil {
						panic(fmt.Sprintf("post-heal write: %v", err))
					}
					got := append([]byte(nil), buf...)
					for i := range got {
						got[i] ^= 0xFF
					}
					if _, err := f.ReadAtAll(0, count, mt, got); err != nil {
						panic(fmt.Sprintf("post-heal read: %v", err))
					}
					for i := 0; i < len(buf); i++ {
						// Holes of a holey layout keep what they held.
						if hole := g.holey && i%16 >= 8; !hole && got[i] != buf[i] || hole && got[i] != buf[i]^0xFF {
							panic(fmt.Sprintf("post-heal round trip: byte %d = %#x (hole=%v)", i, got[i], hole))
						}
					}
				})
				if err != nil {
					t.Fatalf("%s: world error: %v", label, err)
				}
				failRank := g.failIOP
				if g.direct && eng == Listless {
					failRank = g.failRank
				}
				requireAgreement(t, label, errs, failRank, PhaseIOPWindow)
				if !bytes.Equal(fb.Backend.(*storage.Mem).Bytes(), want) {
					t.Errorf("%s: recovered file differs from fault-free oracle", label)
				}
				checkLeaks()
			}
		}
	}
}

// TestChaosCollectiveHarness runs seeded chaos worlds: a Chaos backend
// injecting only transient faults, wrapped in Resilient so every
// injection is ridden out.  The collectives must succeed and produce
// byte-identical contents versus the fault-free oracle, under the stall
// watchdog and with no goroutine leaks.
func TestChaosCollectiveHarness(t *testing.T) {
	const (
		P          = 4
		blockcount = 24
		blocklen   = 16
	)
	d := int64(blockcount * blocklen)
	var injected int64

	for _, seed := range []int64{1, 7, 42} {
		for _, eng := range []Engine{Listless, ListBased} {
			label := fmt.Sprintf("seed=%d/%v", seed, eng)
			checkLeaks := testutil.LeakCheck(t)

			chaos := storage.NewChaos(seed, storage.NewMem(), storage.TransientOnly())
			be := storage.NewResilient(chaos, storage.ResilientConfig{Seed: seed + 1})
			sh := NewShared(be)
			reads := make([][]byte, P)
			_, err := mpi.RunWithOptions(P, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
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
					panic(fmt.Sprintf("chaos write: %v", err))
				}
				got := make([]byte, d)
				if _, err := f.ReadAtAll(0, d, datatype.Byte, got); err != nil {
					panic(fmt.Sprintf("chaos read: %v", err))
				}
				reads[p.Rank()] = got
			})
			if err != nil {
				t.Fatalf("%s: world error: %v", label, err)
			}
			for r := range reads {
				if !bytes.Equal(reads[r], pattern(r, d)) {
					t.Errorf("%s: rank %d read-back corrupted under chaos", label, r)
				}
			}
			want := collOracle(t, eng, P, blockcount, blocklen)
			if !bytes.Equal(chaos.Backend.(*storage.Mem).Bytes(), want) {
				t.Errorf("%s: chaos file differs from fault-free oracle", label)
			}
			injected += chaos.Stats().Total()
			retries, exhausted := be.RetryStats()
			if exhausted != 0 {
				t.Errorf("%s: %d retry budgets exhausted under transient-only chaos", label, exhausted)
			}
			if chaos.Stats().Total() > 0 && retries == 0 {
				t.Errorf("%s: chaos injected %d faults but Resilient recorded no retries",
					label, chaos.Stats().Total())
			}
			checkLeaks()
		}
	}
	if injected == 0 {
		t.Error("chaos harness injected no faults across all seeds; probabilities too low to test anything")
	}
}

// FuzzDecodeCollFault checks the fault-payload decoder against
// arbitrary bytes: never panic, always yield a known phase and a
// non-nil classified cause.
func FuzzDecodeCollFault(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{faultPhaseSetup})
	f.Add([]byte{faultPhaseWindow, faultClassTransient, 'x'})
	f.Add(encodeCollFault(&CollectiveError{Rank: 3, Phase: PhaseIOPWindow, Err: storage.ErrInjected}))
	f.Fuzz(func(t *testing.T, data []byte) {
		phase, cause := decodeCollFault(data)
		switch phase {
		case PhaseIOPSetup, PhaseIOPWindow, phaseUnknown:
		default:
			t.Fatalf("unknown phase %q", phase)
		}
		if cause == nil {
			t.Fatal("nil cause")
		}
		if storage.IsTransient(cause) == storage.IsPermanent(cause) {
			t.Fatalf("cause %v is neither transient nor permanent", cause)
		}
		if cause.Error() == "" {
			t.Fatal("empty cause message")
		}
	})
}
