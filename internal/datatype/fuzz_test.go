package datatype_test

import (
	"math/rand"
	"testing"

	"repro/internal/datatype"
	"repro/internal/datatype/datatypetest"
)

// FuzzDecode feeds arbitrary bytes to the compact-encoding decoder: it
// must either return a valid type or an error — never panic and never
// return a type whose invariants are broken.  The listless engine
// decodes fileviews received from other ranks, so robustness here is a
// security property of fileview caching.
func FuzzDecode(f *testing.F) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 16; i++ {
		f.Add(datatype.Encode(datatypetest.RandomFiletype(r, 3)))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		dt, err := datatype.Decode(data)
		if err != nil {
			return
		}
		if dt == nil {
			t.Fatal("nil type without error")
		}
		// Basic invariants must hold on whatever decoded.
		if dt.Size() < 0 {
			t.Fatalf("negative size %d", dt.Size())
		}
		if dt.Blocks() <= 1<<16 { // keep the harness fast on huge legal types
			var total int64
			dt.Walk(func(off, ln int64) {
				if ln <= 0 {
					t.Fatalf("non-positive block length %d", ln)
				}
				total += ln
			})
			if total != dt.Size() {
				t.Fatalf("walk total %d != size %d", total, dt.Size())
			}
		}
		// Round trip must be stable.
		if _, err := datatype.Decode(datatype.Encode(dt)); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}

// FuzzSubarray checks the subarray constructor against arbitrary
// geometry: invalid inputs must error, valid ones must produce types
// whose size matches the selected volume.
func FuzzSubarray(f *testing.F) {
	f.Add(int64(4), int64(2), int64(1), int64(6), int64(3), int64(2), true)
	f.Fuzz(func(t *testing.T, s0, ss0, st0, s1, ss1, st1 int64, fortran bool) {
		order := datatype.OrderC
		if fortran {
			order = datatype.OrderFortran
		}
		// Bound the volume so the fuzzer cannot allocate absurd walks.
		for _, v := range []int64{s0, s1} {
			if v > 1<<12 {
				return
			}
		}
		dt, err := datatype.Subarray([]int64{s0, s1}, []int64{ss0, ss1}, []int64{st0, st1}, order, datatype.Double)
		if err != nil {
			return
		}
		if want := ss0 * ss1 * 8; dt.Size() != want {
			t.Fatalf("size %d, want %d", dt.Size(), want)
		}
		if dt.Extent() != s0*s1*8 {
			t.Fatalf("extent %d, want %d", dt.Extent(), s0*s1*8)
		}
	})
}
