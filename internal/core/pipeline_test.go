package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/datatype"
	"repro/internal/flatten"
	"repro/internal/testutil"
)

// TestCollectiveBackendMatrix: collective writes and reads that start
// mid-filetype, so that some windows are only partly covered and pre-read,
// through several windows per IOP domain, leave the oracle's bytes on both
// engines over the Mem, Throttled, Striped and (quiescent) Faulty
// backends, and the window pipeline overlaps windows on every one.
func TestCollectiveBackendMatrix(t *testing.T) {
	const P, blockcount, blocklen, off = 3, 40, 16, 96
	for _, backend := range []string{"mem", "throttled", "striped", "faulty"} {
		for _, eng := range engines {
			res := world{P: P, backend: backend, opts: Options{Engine: eng, collBufSize: 192}}.roundTrip(t,
				access{view: fig4(P, blockcount, blocklen), d: blockcount*blocklen - off, off: off})
			if res.stats.WindowsOverlapped == 0 {
				t.Errorf("%s/%v: overlapped no windows", backend, eng)
			}
		}
	}
}

// TestPipelinedFaultPropagates injects a write fault and checks the
// pipelined window loop surfaces it as an agreed error on every rank
// instead of hanging or panicking (the background write-back must hand
// the error to the drain, and error agreement must broadcast it).
func TestPipelinedFaultPropagates(t *testing.T) {
	const P, d = 4, 32 * 16
	for _, eng := range engines {
		checkLeaks := testutil.LeakCheck(t)
		errs := make([]error, P)
		world{P: P, backend: "faulty", checked: true, opts: Options{Engine: eng, collBufSize: 128}}.run(t, nil, func(r rank) {
			if err := r.f.SetView(0, datatype.Byte, noncontigTypeP(r.p.Rank(), P, 32, 16)); err != nil {
				panic(err)
			}
			if r.p.Rank() == 0 {
				r.fb.FailWrites(2)
			}
			r.p.Barrier()
			_, errs[r.p.Rank()] = r.f.WriteAtAll(0, d, datatype.Byte, pattern(r.p.Rank(), d))
		})
		// Whichever IOP's write failed, every rank must agree on it.
		var first *CollectiveError
		if !errors.As(errs[0], &first) {
			t.Fatalf("engine %v: rank 0 returned %v, want a CollectiveError", eng, errs[0])
		}
		requireAgreement(t, fmt.Sprintf("engine %v", eng), errs, first.Rank, PhaseIOPWindow)
		checkLeaks()
	}
}

// TestDecodeTuplesCorrupt exercises the hardened access-list decoder.
func TestDecodeTuplesCorrupt(t *testing.T) {
	good := make([]byte, 2*flatten.TupleBytes)
	putInt64(good[0:], 10)
	putInt64(good[8:], 4)
	putInt64(good[16:], 30)
	putInt64(good[24:], 2)
	l, err := decodeTuples(good)
	if err != nil {
		t.Fatalf("valid payload: %v", err)
	}
	want := flatten.List{{Off: 10, Len: 4}, {Off: 30, Len: 2}}
	if len(l) != 2 || l[0] != want[0] || l[1] != want[1] {
		t.Fatalf("decoded %v, want %v", l, want)
	}
	if _, err := decodeTuples(good[:flatten.TupleBytes+3]); !errors.Is(err, ErrCorruptAccessList) {
		t.Errorf("truncated payload: got %v, want ErrCorruptAccessList", err)
	}
	neg := make([]byte, flatten.TupleBytes)
	putInt64(neg[0:], 5)
	putInt64(neg[8:], -1)
	if _, err := decodeTuples(neg); !errors.Is(err, ErrCorruptAccessList) {
		t.Errorf("negative length: got %v, want ErrCorruptAccessList", err)
	}
	if l, err := decodeTuples(nil); err != nil || len(l) != 0 {
		t.Errorf("empty payload: got %v, %v", l, err)
	}
}
