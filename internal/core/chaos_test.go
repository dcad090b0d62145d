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
// on the same File must produce correct bytes on both engines.
func TestCollectiveErrorAgreement(t *testing.T) {
	const (
		P          = 4
		blockcount = 32
		blocklen   = 16
		failIOP    = 1
	)
	d := int64(blockcount * blocklen)
	domSize := d // gHi = P*d, split across P IOPs

	for _, eng := range []Engine{Listless, ListBased} {
		label := eng.String()
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
		requireAgreement(t, label, errs, failIOP, PhaseIOPWindow)
		want := collOracle(t, eng, P, blockcount, blocklen)
		if !bytes.Equal(fb.Backend.(*storage.Mem).Bytes(), want) {
			t.Errorf("%s: file bytes differ from fault-free oracle", label)
		}
		checkLeaks()
	}
}

// TestFaultCollectiveMatrix runs 4-rank fault propagation across
// read/write × both engines, asserting unanimous agreement each time
// and full recovery after healing.
func TestFaultCollectiveMatrix(t *testing.T) {
	const (
		P          = 4
		blockcount = 32
		blocklen   = 16
		failIOP    = 2
	)
	d := int64(blockcount * blocklen)
	domSize := d

	for _, eng := range []Engine{Listless, ListBased} {
		for _, write := range []bool{false, true} {
			op := "read"
			if write {
				op = "write"
			}
			label := fmt.Sprintf("%v/%s", eng, op)
			checkLeaks := testutil.LeakCheck(t)

			fb := storage.NewFaulty(storage.NewMem())
			sh := NewShared(fb)
			errs := make([]error, P)
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
				if !write {
					// Seed the file so the faulted read has data under it.
					if _, err := f.WriteAtAll(0, d, datatype.Byte, data); err != nil {
						panic(err)
					}
				}
				if p.Rank() == 0 {
					lo, hi := int64(failIOP)*domSize, int64(failIOP+1)*domSize
					if write {
						fb.FailWriteRange(lo, hi)
					} else {
						fb.FailReadRange(lo, hi)
					}
				}
				p.Barrier()
				if write {
					_, errs[p.Rank()] = f.WriteAtAll(0, d, datatype.Byte, data)
				} else {
					_, errs[p.Rank()] = f.ReadAtAll(0, d, datatype.Byte, make([]byte, d))
				}
				p.Barrier()
				if p.Rank() == 0 {
					fb.Heal()
				}
				p.Barrier()
				// Recovery: the same collective, fault-free, must
				// round-trip on the same File.
				if _, err := f.WriteAtAll(0, d, datatype.Byte, data); err != nil {
					panic(fmt.Sprintf("post-heal write: %v", err))
				}
				got := make([]byte, d)
				if _, err := f.ReadAtAll(0, d, datatype.Byte, got); err != nil {
					panic(fmt.Sprintf("post-heal read: %v", err))
				}
				if !bytes.Equal(got, data) {
					panic("post-heal round trip mismatch")
				}
			})
			if err != nil {
				t.Fatalf("%s: world error: %v", label, err)
			}
			requireAgreement(t, label, errs, failIOP, PhaseIOPWindow)
			want := collOracle(t, eng, P, blockcount, blocklen)
			if !bytes.Equal(fb.Backend.(*storage.Mem).Bytes(), want) {
				t.Errorf("%s: recovered file differs from fault-free oracle", label)
			}
			checkLeaks()
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
