package fotf

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datatype"
)

// The fused copy's differential layer.  CopyFused(dst program, src
// program) must leave both buffers exactly as "pack the source range by
// the recursive walk, unpack it over the destination range by the walk"
// does.  Both buffers are cut to the bytes the walk touches plus a guard
// on either side, so the comparison also proves that no byte outside the
// two described ranges — guard, hole, or neighbouring run — is written,
// and the bias that places each range in its buffer comes out positive,
// zero or negative depending on where the range starts.

// walkBounds returns the lowest buffer offset and one past the highest
// that the walk touches for data [d0, d1) of the tiled type.
func walkBounds(dt *datatype.Type, d0, d1 int64) (lo, hi int64) {
	first := true
	Runs(dt, d0, d1, func(bufOff, _, runLen, stride, n int64) {
		a, b := bufOff, bufOff+(n-1)*stride
		if b < a {
			a, b = b, a
		}
		if first || a < lo {
			lo = a
		}
		if first || b+runLen > hi {
			hi = b + runLen
		}
		first = false
	})
	return lo, hi
}

// checkFused runs one fused copy of n bytes — source data offset sd0 of
// st, destination data offset dd0 of dt — against the walk.
func checkFused(dt, st *datatype.Type, dd0, sd0, n int64, r *rand.Rand) error {
	dp, sp := Compile(dt), Compile(st)
	if dp == nil || sp == nil {
		return fmt.Errorf("Compile declined (dst %v, src %v)", dp == nil, sp == nil)
	}
	dGuard, sGuard := int64(r.Intn(40)), int64(r.Intn(40))
	sLo, sHi := walkBounds(st, sd0, sd0+n)
	dLo, dHi := walkBounds(dt, dd0, dd0+n)
	sbias, dbias := sLo-sGuard, dLo-dGuard

	src := make([]byte, sHi-sLo+2*sGuard)
	r.Read(src)
	srcBefore := append([]byte(nil), src...)
	want := make([]byte, dHi-dLo+2*dGuard)
	r.Read(want)
	got := append([]byte(nil), want...)
	byPiece := append([]byte(nil), want...)

	staged := make([]byte, n)
	CopyRange(staged, src, st, sd0, sd0+n, sbias, true)
	CopyRange(staged, want, dt, dd0, dd0+n, dbias, false)

	CopyFused(got, dp, dd0, dbias, src, sp, sd0, sbias, n)
	if !bytes.Equal(src, srcBefore) {
		return fmt.Errorf("source buffer modified")
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("dst[%d] (buffer offset %d) = %#x, staged walk %#x; n=%d dd0=%d sd0=%d dbias=%d sbias=%d",
				i, int64(i)+dbias, got[i], want[i], n, dd0, sd0, dbias, sbias)
		}
	}

	// The enumeration: pieces in data order that add up to n, each
	// contiguous on both sides (or copying it would not give the walk's
	// bytes), and no more of them than the two ranges have runs.
	var moved, pieces int64
	RunsFused(dp, dd0, dbias, sp, sd0, sbias, n, func(do, so, ln int64) {
		if ln > 0 {
			copy(byPiece[do:do+ln], src[so:so+ln])
		}
		moved, pieces = moved+max(ln, 0), pieces+1
	})
	if moved != n || !bytes.Equal(byPiece, want) {
		return fmt.Errorf("RunsFused: %d pieces of %d bytes for n=%d; copied one by one they differ from the staged walk: %v",
			pieces, moved, n, !bytes.Equal(byPiece, want))
	}
	if most := dp.RunCount(dd0, dd0+n) + sp.RunCount(sd0, sd0+n); pieces > most {
		return fmt.Errorf("RunsFused: %d pieces over ranges of %d runs in all", pieces, most)
	}
	return checkPlan(dp, dd0, dbias, srcBefore, sp, sd0, sbias, n, want, r)
}

// checkPlan replays the plan of the fused copy both ways against the
// walk, whether or not PlanFused would keep it: Copy from src into a
// random destination-shaped buffer, and CopyBack from want into a random
// source-shaped one, must each leave what the staged walk leaves — pack by
// the one type, unpack over the other — every guard and hole untouched.
func checkPlan(dp *Program, dd0, dbias int64, src []byte, sp *Program, sd0, sbias, n int64, want []byte, r *rand.Rand) error {
	var rec planRecorder
	lockstep(nil, dp, dd0, dbias, nil, sp, sd0, sbias, n, &rec)
	if rec.overflow {
		return fmt.Errorf("plan: an index overflowed on buffers of %d and %d bytes", len(want), len(src))
	}
	plan := rec.plan()
	var moved int64
	for _, p := range plan.pieces {
		moved += int64(p.ln)
	}
	for _, k := range plan.kerns {
		moved += k.bl * k.q * k.k
	}
	if moved != n {
		return fmt.Errorf("plan: %d pieces and %d batched steps move %d bytes, want %d", len(plan.pieces), len(plan.kerns), moved, n)
	}

	got := make([]byte, len(want))
	r.Read(got)
	wantCopy := append([]byte(nil), got...)
	staged := make([]byte, n)
	CopyRange(staged, src, sp.Type(), sd0, sd0+n, sbias, true)
	CopyRange(staged, wantCopy, dp.Type(), dd0, dd0+n, dbias, false)
	plan.Copy(got, src)
	if i := firstDiff(got, wantCopy); i >= 0 {
		return fmt.Errorf("plan Copy: dst[%d] = %#x, staged walk %#x", i, got[i], wantCopy[i])
	}

	back := make([]byte, len(src))
	r.Read(back)
	wantBack := append([]byte(nil), back...)
	CopyRange(staged, want, dp.Type(), dd0, dd0+n, dbias, true)
	CopyRange(staged, wantBack, sp.Type(), sd0, sd0+n, sbias, false)
	plan.CopyBack(want, back)
	if i := firstDiff(back, wantBack); i >= 0 {
		return fmt.Errorf("plan CopyBack: src[%d] = %#x, staged walk %#x", i, back[i], wantBack[i])
	}
	return nil
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// irregularHindexed is an Hindexed of n blocks with seeded lengths in
// [8, 248] (multiples of 8) and seeded gaps, so that all but a chance few
// blocks compile to a group of their own.
func irregularHindexed(t testing.TB, n int, seed int64) *datatype.Type {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	lens, displs := make([]int64, n), make([]int64, n)
	var off int64
	for i := range lens {
		off += 8 + 8*r.Int63n(31)
		lens[i], displs[i] = 8+8*r.Int63n(31), off
		off += lens[i]
	}
	return hindexed(t, lens, displs, datatype.Byte)
}

func TestFusedVsWalkTable(t *testing.T) {
	must := func(dt *datatype.Type, err error) *datatype.Type {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return dt
	}
	hv := func(count, blocklen, stride int64) *datatype.Type {
		return must(datatype.Hvector(count, blocklen, stride, datatype.Byte))
	}
	// A vector with an empty block length and an indexed type with empty
	// blocks: the walk emits nothing for them, so neither may the copy.
	emptyRuns := hindexed(t, []int64{3, 0, 5, 0, 0, 2}, []int64{0, 4, 8, 14, 20, 24}, datatype.Byte)
	// Data below the type's origin: the copy then addresses its buffer
	// at a negative offset and only the bias makes it an index.
	negLB := hindexed(t, []int64{4, 4}, []int64{-24, -8}, datatype.Byte)
	oneGroup := hv(1<<15, 8, 24)
	manyGroups := irregularHindexed(t, 1<<15, 3)
	irrView, irrMem := irrShaped(t, 2000, 1)
	if g := Compile(oneGroup).Groups(); g != 1 {
		t.Fatalf("one-group vector compiled to %d groups", g)
	}
	if g := Compile(manyGroups).Groups(); g < 30000 {
		t.Fatalf("irregular type compiled to %d groups, want about %d", g, 1<<15)
	}

	for _, c := range []struct {
		name     string
		dt, st   *datatype.Type
		dd0, sd0 int64
		n        int64
	}{
		{"equal-8B-aligned", hv(64, 8, 16), hv(64, 8, 24), 0, 0, 512},
		{"equal-8B-mid-run-both", hv(64, 8, 16), hv(64, 8, 24), 3, 3, 400},
		{"equal-8B-mid-run-src", hv(64, 8, 16), hv(64, 8, 24), 8, 5, 300},
		{"equal-8B-mid-run-dst", hv(64, 8, 16), hv(64, 8, 24), 5, 16, 300},
		{"equal-8B-ends-mid-run", hv(64, 8, 16), hv(64, 8, 24), 0, 0, 67},
		{"width-1", hv(32, 1, 3), hv(32, 1, 2), 1, 2, 25},
		{"width-2", hv(32, 2, 5), hv(32, 2, 4), 2, 4, 50},
		{"width-4", hv(32, 4, 9), hv(32, 4, 8), 4, 8, 100},
		{"width-16", hv(32, 16, 40), hv(32, 16, 17), 16, 32, 400},
		{"width-24-generic", hv(32, 24, 40), hv(32, 24, 25), 24, 48, 600},
		{"8B-into-64B", hv(16, 64, 100), hv(128, 8, 16), 0, 0, 1024},
		{"64B-into-8B", hv(128, 8, 16), hv(16, 64, 100), 0, 0, 1024},
		{"8B-into-64B-mid-run", hv(16, 64, 100), hv(128, 8, 16), 13, 7, 900},
		{"interleaving-12B-20B", hv(50, 12, 30), hv(30, 20, 21), 5, 9, 500},
		{"interleaving-past-the-stage-buffer", hv(2000, 12, 30), hv(1200, 20, 21), 7, 3, 23000},
		{"interleaving-tiled", hv(7, 12, 30), hv(5, 20, 21), 7, 3, 5000},
		{"interleaving-long-runs", hv(50, 100, 130), hv(40, 120, 121), 7, 3, 4000},
		{"tiled-dst-count>1", hv(4, 8, 16), hv(256, 8, 24), 40, 0, 1000},
		{"tiled-src-count>1", hv(256, 8, 24), hv(4, 8, 16), 0, 44, 1000},
		{"tiled-both", hv(3, 8, 16), hv(5, 8, 12), 100, 200, 999},
		{"contiguous-src", hv(64, 8, 16), must(datatype.Contiguous(512, datatype.Byte)), 8, 16, 480},
		{"contiguous-dst", must(datatype.Contiguous(512, datatype.Byte)), hv(64, 8, 16), 16, 8, 480},
		{"empty-runs-dst", emptyRuns, hv(64, 8, 16), 1, 2, 27},
		{"empty-runs-src", hv(64, 8, 16), emptyRuns, 2, 1, 27},
		{"negative-lb", negLB, hv(8, 2, 4), 1, 0, 14},
		{"negative-lb-src", hv(8, 2, 4), negLB, 0, 9, 14},
		{"irregular-both", irregularHindexed(t, 300, 1), irregularHindexed(t, 300, 2), 11, 5, 20000},
		// The irr workload's two sides, a window that starts and ends
		// mid-run on both: nearly every step a piece (and the plan kept).
		{"irr-shaped", irrView, irrMem, 3001, 3001, 150000},
		{"1-group-into-32k-groups", manyGroups, oneGroup, 0, 0, 1 << 18},
		{"32k-groups-into-1-group", oneGroup, manyGroups, 4, 12, 1<<18 - 16},
		{"single-byte", hv(64, 8, 16), hv(64, 8, 24), 77, 78, 1},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if err := checkFused(c.dt, c.st, c.dd0, c.sd0, c.n, rand.New(rand.NewSource(1))); err != nil {
				t.Fatal(err)
			}
		})
	}

	t.Run("n=0", func(t *testing.T) {
		p := Compile(hv(4, 8, 16))
		dst, src := []byte{1, 2, 3}, []byte{4, 5, 6}
		// Offsets far outside both buffers: nothing may be addressed.
		CopyFused(dst, p, 1<<40, 0, src, p, 1<<41, 0, 0)
		CopyFused(dst, p, 0, 0, src, p, 0, 0, -5)
		if !bytes.Equal(dst, []byte{1, 2, 3}) {
			t.Fatal("n <= 0 wrote to dst")
		}
		for _, n := range []int64{0, -5} {
			RunsFused(p, 1<<40, 0, p, 1<<41, 0, n, func(do, so, ln int64) {
				t.Fatalf("n = %d emitted a piece (%d, %d, %d)", n, do, so, ln)
			})
		}
	})
}

// fuzzFused is the body shared by the fuzz target and its quick-check
// twin: two random trees, each tiled, and a range that starts and ends
// wherever the words put it.
func fuzzFused(seed int64, w0, w1, w2 uint16) error {
	r := rand.New(rand.NewSource(seed))
	dt := datatype.RandomMemtype(r, 2+int(uint16(seed)%3))
	st := datatype.RandomFiletype(r, 2+int(uint16(seed>>16)%3))
	// Up to three instances of either type, so ranges cross instance
	// boundaries on one side, the other, or both.
	n := 1 + int64(w2)%(3*min(dt.Size(), st.Size()))
	dd0 := int64(w0) % (3*dt.Size() - n + 1)
	sd0 := int64(w1) % (3*st.Size() - n + 1)
	if err := checkFused(dt, st, dd0, sd0, n, r); err != nil {
		return fmt.Errorf("dst %v, src %v: %v", dt, st, err)
	}
	return nil
}

// FuzzFusedVsWalk is the differential fuzzer of the fused copy (see the
// file comment): random tree pairs from the generator that also feeds
// FuzzProgramVsWalk — zero-length blocks, Resized bounds, holes, nested
// structs — and fuzzed range words.
func FuzzFusedVsWalk(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		f.Add(r.Int63(), uint16(r.Intn(1<<16)), uint16(r.Intn(1<<16)), uint16(r.Intn(1<<16)))
	}
	f.Add(int64(0), uint16(0), uint16(0), uint16(0))
	f.Add(int64(-1), uint16(1<<15), uint16(1), uint16(1<<16-1))
	f.Fuzz(func(t *testing.T, seed int64, w0, w1, w2 uint16) {
		if err := fuzzFused(seed, w0, w1, w2); err != nil {
			t.Fatal(err)
		}
	})
}

func TestQuickFusedVsWalk(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 3000; i++ {
		seed, w0, w1, w2 := r.Int63(), uint16(r.Intn(1<<16)), uint16(r.Intn(1<<16)), uint16(r.Intn(1<<16))
		if err := fuzzFused(seed, w0, w1, w2); err != nil {
			t.Fatalf("seed %d words %d %d %d: %v", seed, w0, w1, w2, err)
		}
	}
}
