package fotf

import (
	"math/rand"
	"testing"

	"repro/internal/datatype/datatypetest"
)

// FuzzProgramVsWalk is the differential fuzzer of the compiled-program
// layer: a fuzzed seed drives the random tree generator (which emits
// zero-length blocks, LB/UB adjustments via Resized, holes, and deep
// struct nesting), and the fuzzed window words pick a hostile (d0, d1)
// for an extra targeted window check on top of the full battery.  The
// program, and a Cursor reset without it, must pack/unpack
// byte-identically to the recursive walk, and must neither panic nor
// write a byte the walk would not.
func FuzzProgramVsWalk(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 12; i++ {
		f.Add(r.Int63(), uint16(r.Intn(1<<16)), uint16(r.Intn(1<<16)))
	}
	f.Add(int64(0), uint16(0), uint16(0))
	f.Add(int64(-1), uint16(1<<15), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, w0, w1 uint16) {
		r := rand.New(rand.NewSource(seed))
		depth := 2 + int(uint16(seed)%3)
		dt := datatypetest.RandomFiletype(r, depth)
		if err := checkProgramVsWalk(dt, r); err != nil {
			t.Fatalf("type %v: %v", dt, err)
		}
		p := Compile(dt)
		if p == nil {
			return
		}
		// Targeted window from the fuzzed words, spanning instances.
		total := 3 * p.size
		d0 := int64(w0) % total
		d1 := d0 + 1 + int64(w1)%(total-d0)
		span := walkSpan(dt, total)
		src := make([]byte, span)
		r.Read(src)
		want := make([]byte, d1-d0)
		got := make([]byte, d1-d0)
		walked := make([]byte, d1-d0)
		CopyRange(want, src, dt, d0, d1, 0, true)
		p.CopyRange(got, src, d0, d1, 0, true)
		var walk Cursor
		walk.Reset(dt, nil)
		walk.CopyRange(walked, src, d0, d1, 0, true)
		for i := range want {
			if want[i] != got[i] || want[i] != walked[i] {
				t.Fatalf("type %v window [%d,%d): byte %d differs: walk %#x, program %#x, program-less cursor %#x",
					dt, d0, d1, d0+int64(i), want[i], got[i], walked[i])
			}
		}
	})
}
