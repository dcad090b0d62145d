package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/datatype"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// Fault-tolerance harness: multi-rank worlds with injected storage faults
// across engines × access geometries × read/write, asserting no deadlock
// (stall watchdog), no goroutine leak, unanimous error agreement, and the
// flat oracle's bytes whenever the faults are survivable.

// TestCollectiveErrorAgreement is the acceptance scenario: a 4-rank
// collective read with a permanent fault injected into exactly one
// IOP's file domain must return the same wrapped CollectiveError
// (correct rank, correct phase) on every rank, without deadlock or
// goroutine leak — and an immediately following fault-free collective
// on the same File must produce correct bytes on both engines, through
// buffered windows and through direct ones.
func TestCollectiveErrorAgreement(t *testing.T) {
	const P, blockcount, failIOP = 4, 32, 1
	// 16-byte blocks: eight of them from four ranks in every 128-byte
	// window, which gathers them in its buffer.  Page-long blocks: a rank's
	// blocks lie three pages apart, so on the listless engine the views are
	// sparse and every window is direct — the faulted read is then a
	// vectored one of the rank whose block it is, and every rank reads a
	// block in the faulted domain: rank 0 is the lowest that fails.
	for _, blocklen := range []int64{16, storage.PageSize} {
		d := blockcount * blocklen // each IOP's domain
		data := [][]byte{pattern(0, d), pattern(1, d), pattern(2, d), pattern(3, d)}
		o := flat(fig4(P, blockcount, blocklen), nil, 0, data)
		for _, eng := range engines {
			label := fmt.Sprintf("%v/blocklen=%d", eng, blocklen)
			checkLeaks := testutil.LeakCheck(t)
			direct := eng == Listless && blocklen == storage.PageSize
			errs := make([]error, P)
			res := world{P: P, backend: "faulty", checked: true, opts: Options{Engine: eng, collBufSize: 128}}.run(t, o.file, func(r rank) {
				if err := r.f.SetView(0, datatype.Byte, noncontigTypeP(r.p.Rank(), P, blockcount, blocklen)); err != nil {
					panic(err)
				}
				if _, err := r.f.WriteAtAll(0, d, datatype.Byte, data[r.p.Rank()]); err != nil {
					panic(err)
				}
				if r.f.Stats.DirectWrites > 0 != direct {
					panic(fmt.Sprintf("direct windows: %v", !direct))
				}
				r.fb.FailReadRange(failIOP*d, (failIOP+1)*d)
				r.p.Barrier()
				_, errs[r.p.Rank()] = r.f.ReadAtAll(0, d, datatype.Byte, make([]byte, d))
				r.p.Barrier()
				r.fb.Heal()
				r.p.Barrier()
				// The File must remain usable: a fault-free collective
				// right after the agreed failure.
				got := make([]byte, d)
				if _, err := r.f.ReadAtAll(0, d, datatype.Byte, got); err != nil || !bytes.Equal(got, data[r.p.Rank()]) {
					panic(fmt.Sprintf("post-fault read: %v, or wrong bytes", err))
				}
			})
			failRank := failIOP
			if direct {
				failRank = 0
			}
			requireAgreement(t, label, errs, failRank, PhaseIOPWindow)
			if !bytes.Equal(res.file, o.file) {
				t.Errorf("%s: the file differs from the oracle", label)
			}
			checkLeaks()
		}
	}
}

// faultGeom is one access geometry of the fault matrix: who sees which
// part of the file, through what memory layout, and which IOP's domain
// the fault hits.
type faultGeom struct {
	name    string
	P       int
	failIOP int
	view    viewFn
	d       int64 // every rank's data bytes
	// holey makes the memory layout non-contiguous too (holeyDouble),
	// which is what lets the listless engine fuse an IOP's own share: with
	// it the failing IOP below has nothing to receive or send.
	holey bool
	// declined makes the memory layout 15 bytes in 16 followed by a tail
	// no program holds (declinedType), and d its size: the listless engine
	// then lends no memory, and every AP packs its shares and sends them
	// as chunks, which a failed IOP never takes and the drain puts back.
	declined bool
	// rmw: the combined views leave holes, so a write pre-reads.
	rmw bool
	// direct: on the listless engine every window is direct, moved by the
	// ranks whose data it holds, each by one vectored call, and a fault in
	// the failing IOP's domain fails every rank with data there: the
	// lowest of them, failRank, is the one agreed on.
	direct   bool
	failRank int
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
// vote.  The interleaved access from memory no program holds sends the
// listless engine's shares as chunks too.
func TestFaultCollectiveMatrix(t *testing.T) {
	const blockcount, blocklen = 32, 16
	d := int64(blockcount * blocklen)
	half := noncontigTypeP(0, 2, blockcount, blocklen) // every other block of one half
	long := 2 * storage.PageSize
	declinedMem := declinedType(t, mustType(datatype.Resized(hvecBytes(1, 15, 15), 0, 16)))
	for _, g := range []faultGeom{
		{name: "interleaved/P=4", P: 4, failIOP: 2, d: d, view: fig4(4, blockcount, blocklen)},
		// 8 208 data bytes, 513 whole blocks: the plan's file range ends
		// where the oracle's does.
		{name: "interleaved-declined-memory/P=4", P: 4, failIOP: 2, d: declinedMem.Size(), declined: true,
			view: fig4(4, declinedMem.Size()/blocklen, blocklen)},
		{name: "self-only/P=1", P: 1, failIOP: 0, d: d, holey: true, rmw: true,
			view: func(int) (int64, *datatype.Type) { return 0, half }},
		{name: "disjoint-halves/P=2", P: 2, failIOP: 1, d: d, holey: true, rmw: true,
			view: func(rank int) (int64, *datatype.Type) { return int64(rank) * half.Extent(), half }},
		// Blocks of two pages, two pages apart: on the listless engine every
		// window is direct, so the faulted accesses are the vectored writes
		// and reads of the ranks themselves, over their user buffers: every
		// rank has blocks in IOP 1's domain.
		{name: "long-runs/P=2", P: 2, failIOP: 1, d: 8 * long, direct: true, failRank: 0, view: fig4(2, 8, long)},
	} {
		mt := datatype.Byte
		switch {
		case g.holey:
			mt = holeyDouble()
		case g.declined:
			mt = declinedMem
		}
		data := make([][]byte, g.P)
		for r := range data {
			data[r] = pattern(r, g.d)
		}
		o := flat(g.view, func(int) *datatype.Type { return mt }, 0, data)
		// The failing IOP's file domain, as makePlan cuts [0, end), the
		// range the ranks touch.
		end := int64(len(o.file)) - 777
		dom := (end + int64(g.P) - 1) / int64(g.P)
		lo, hi := int64(g.failIOP)*dom, min(int64(g.failIOP+1)*dom, end)
		for _, eng := range engines {
			w := world{P: g.P, backend: "faulty", checked: true, opts: Options{Engine: eng, collBufSize: 128}}
			setView := func(r rank) {
				disp, ft := g.view(r.p.Rank())
				if err := r.f.SetView(disp, datatype.Byte, ft); err != nil {
					panic(err)
				}
			}
			// The cells below are only what they claim if the failing IOP's
			// own share really travels without a message, and the long runs
			// are direct.
			w.run(t, o.file, func(r rank) {
				setView(r)
				sent := r.p.SentStats().Bytes
				if _, err := r.f.WriteAtAll(0, o.count[r.p.Rank()], mt, o.bufs[r.p.Rank()]); err != nil {
					panic(err)
				}
				if sent = r.p.SentStats().Bytes - sent; g.holey && (eng == Listless) != (sent < g.d) {
					panic(fmt.Sprintf("%v sent %d payload bytes for %d bytes of own data", eng, sent, g.d))
				}
				if st := r.f.Stats; (st.SieveWrites == 0 && st.VectoredWrites > 0) != (g.direct && eng == Listless) {
					panic(fmt.Sprintf("%v moved %d IOP windows and %d own batches", eng, st.SieveWrites, st.VectoredWrites))
				}
			})
			ops := []string{"read", "write"}
			if g.rmw {
				ops = append(ops, "write-preread")
			}
			for _, op := range ops {
				label := fmt.Sprintf("%s/%v/%s", g.name, eng, op)
				checkLeaks := testutil.LeakCheck(t)
				errs := make([]error, g.P)
				res := w.run(t, bytes.Repeat([]byte{background}, len(o.file)), func(r rank) {
					setView(r)
					rk := r.p.Rank()
					if op != "write" {
						// Seed the file so the faulted read has data under it.
						if _, err := r.f.WriteAtAll(0, o.count[rk], mt, o.bufs[rk]); err != nil {
							panic(err)
						}
						r.fb.FailReadRange(lo, hi)
					} else {
						r.fb.FailWriteRange(lo, hi)
					}
					r.p.Barrier()
					if op == "read" {
						_, errs[rk] = r.f.ReadAtAll(0, o.count[rk], mt, make([]byte, len(o.bufs[rk])))
					} else {
						_, errs[rk] = r.f.WriteAtAll(0, o.count[rk], mt, o.bufs[rk])
					}
					r.p.Barrier()
					r.fb.Heal()
					r.p.Barrier()
					// Recovery: the same collective, fault-free, must
					// round-trip on the same File, holes left alone.
					got := bytes.Repeat([]byte{0xEE}, len(o.bufs[rk]))
					if _, err := r.f.WriteAtAll(0, o.count[rk], mt, o.bufs[rk]); err != nil {
						panic(fmt.Sprintf("post-heal write: %v", err))
					}
					if _, err := r.f.ReadAtAll(0, o.count[rk], mt, got); err != nil || !bytes.Equal(got, o.reads[rk]) {
						panic(fmt.Sprintf("post-heal read: %v, or it differs from the oracle", err))
					}
				})
				failRank := g.failIOP
				if g.direct && eng == Listless {
					failRank = g.failRank
				}
				requireAgreement(t, label, errs, failRank, PhaseIOPWindow)
				if !bytes.Equal(res.file, o.file) {
					t.Errorf("%s: recovered file differs from the oracle", label)
				}
				checkLeaks()
			}
		}
	}
}

// TestChaosCollectiveHarness runs seeded chaos worlds: a Chaos backend
// injecting only transient faults, wrapped in Resilient so every
// injection is ridden out.  The collectives must succeed and leave the
// oracle's bytes, under the stall watchdog and with no goroutine leaks.
func TestChaosCollectiveHarness(t *testing.T) {
	var injected int64
	for _, seed := range []int64{1, 7, 42} {
		for _, eng := range engines {
			label := fmt.Sprintf("seed=%d/%v", seed, eng)
			checkLeaks := testutil.LeakCheck(t)
			var chaos *storage.Chaos
			var be *storage.Resilient
			world{P: 4, checked: true, opts: Options{Engine: eng, collBufSize: 128}, wrap: func(b storage.Backend) storage.Backend {
				chaos = storage.NewChaos(seed, b, storage.TransientOnly())
				be = storage.NewResilient(chaos, storage.ResilientConfig{Seed: seed + 1})
				return be
			}}.roundTrip(t, access{view: fig4(4, 24, 16), d: 24 * 16})
			st := chaos.Stats()
			faults := st.Transients + st.Permanents + st.ShortReads + st.TornWrites
			injected += faults
			retries, exhausted := be.RetryStats()
			if exhausted != 0 {
				t.Errorf("%s: %d retry budgets exhausted under transient-only chaos", label, exhausted)
			}
			if faults > 0 && retries == 0 {
				t.Errorf("%s: chaos injected %d faults but Resilient recorded no retries", label, faults)
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
// non-nil cause classified transient or permanent.
func FuzzDecodeCollFault(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{faultPhaseSetup})
	f.Add([]byte{faultPhaseWindow, faultClassTransient, 'x'})
	f.Add(encodeCollFault(&CollectiveError{Rank: 3, Phase: PhaseIOPWindow, Err: storage.ErrInjected}))
	f.Add(encodeCollFault(&CollectiveError{Rank: 1, Phase: PhaseIOPSetup, Err: ErrCorruptAccessList}))
	f.Add(encodeCollFault(&CollectiveError{Rank: 0, Phase: PhaseEpochSeal, Err: storage.ErrEpochRetry}))
	f.Add(encodeCollFault(&CollectiveError{Rank: 0, Phase: PhaseEpochCommit, Err: storage.ErrInjected}))
	f.Fuzz(func(t *testing.T, data []byte) {
		phase, cause := decodeCollFault(data)
		switch phase {
		case PhaseIOPSetup, PhaseIOPWindow, PhaseEpochSeal, PhaseEpochCommit, phaseUnknown:
		default:
			t.Fatalf("unknown phase %q", phase)
		}
		// A payload an encoder could have sent round-trips: the same
		// phase, class and message encode to the same bytes.
		if len(data) > 2 && data[0] >= faultPhaseSetup && data[0] <= faultPhaseCommit &&
			(data[1] == faultClassTransient || data[1] == faultClassPermanent) {
			if re := encodeCollFault(&CollectiveError{Phase: phase, Err: cause}); !bytes.Equal(re, data) {
				t.Fatalf("%q decodes to phase %s, %v, which encodes to %q", data, phase, cause, re)
			}
		}
		if cause == nil {
			t.Fatal("nil cause")
		}
		if errors.Is(cause, storage.ErrTransient) == errors.Is(cause, storage.ErrPermanent) {
			t.Fatalf("cause %v is neither transient nor permanent", cause)
		}
		if cause.Error() == "" {
			t.Fatal("empty cause message")
		}
	})
}
