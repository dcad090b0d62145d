package core

import (
	"errors"
	"testing"

	"repro/internal/datatype"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// Fault-injection tests: backend errors must surface as errors from the
// I/O calls (never panics, never silent truncation) through every path —
// contiguous, staged, sieving, and two-phase collective.

// faulted runs op on one rank of a "faulty" world of eng, through a sieve
// and a pack buffer far smaller than its accesses, and returns its error.
func faulted(t *testing.T, eng Engine, op func(r rank) error) (err error) {
	world{P: 1, backend: "faulty", checked: true, opts: Options{Engine: eng, sieveBufSize: 64, packBufSize: 32}}.run(t, nil, func(r rank) { err = op(r) })
	return err
}

func TestFaultContiguousWrite(t *testing.T) {
	for _, eng := range engines {
		err := faulted(t, eng, func(r rank) error {
			r.fb.FailWrites(1)
			_, err := r.f.WriteAt(0, 64, datatype.Byte, make([]byte, 64))
			return err
		})
		if !errors.Is(err, storage.ErrInjected) {
			t.Errorf("%v: err = %v, want injected", eng, err)
		}
	}
}

// TestFaultSievingWrite fails the write-back of a sieve window, and the
// read of a later one.
func TestFaultSievingWrite(t *testing.T) {
	ft := mustType(datatype.Vector(16, 1, 2, datatype.Double))
	for _, eng := range engines {
		for _, write := range []bool{true, false} {
			err := faulted(t, eng, func(r rank) error {
				if err := r.f.SetView(0, datatype.Byte, ft); err != nil {
					return err
				}
				if write {
					r.fb.FailWrites(1)
					_, err := r.f.WriteAt(0, 64, datatype.Byte, make([]byte, 64))
					return err
				}
				r.fb.FailReads(2)
				_, err := r.f.ReadAt(0, 128, datatype.Byte, make([]byte, 128))
				return err
			})
			if !errors.Is(err, storage.ErrInjected) {
				t.Errorf("%v write=%v: sieve err = %v", eng, write, err)
			}
		}
	}
}

// TestFaultCollectiveWrite: every rank's writes fail from the first on,
// so the lowest failing rank — and thus the agreed attribution — is rank
// 0.
func TestFaultCollectiveWrite(t *testing.T) {
	for _, eng := range engines {
		faultCollectiveWrite(t, eng, false)
	}
}

func faultCollectiveWrite(t *testing.T, eng Engine, tcp bool) {
	const P = 4
	defer testutil.LeakCheck(t)()
	errs := make([]error, P)
	world{P: P, tcp: tcp, backend: "faulty", checked: true, opts: Options{Engine: eng, collBufSize: 128}}.run(t, nil, func(r rank) {
		if err := r.f.SetView(0, datatype.Byte, noncontigTypeP(r.p.Rank(), P, 16, 8)); err != nil {
			panic(err)
		}
		r.fb.FailWrites(1)
		r.p.Barrier()
		_, errs[r.p.Rank()] = r.f.WriteAtAll(0, 128, datatype.Byte, make([]byte, 128))
	})
	requireAgreement(t, eng.String(), errs, 0, PhaseIOPWindow)
}

func TestFaultHealRecovers(t *testing.T) {
	err := faulted(t, Listless, func(r rank) error {
		r.fb.FailWrites(1)
		if _, err := r.f.WriteAt(0, 8, datatype.Byte, make([]byte, 8)); err == nil {
			t.Error("expected injected failure")
		}
		r.fb.Heal()
		_, err := r.f.WriteAt(0, 8, datatype.Byte, make([]byte, 8))
		return err
	})
	if err != nil {
		t.Fatalf("post-heal write failed: %v", err)
	}
}
