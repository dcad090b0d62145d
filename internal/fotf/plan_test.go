package fotf

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/datatype"
)

// irrShaped returns the two sides of the irr workload's copy at a
// smaller scale: view is rank 0's blocks of a two-rank interleaving of n
// seeded lengths each (8 to 248 bytes, multiples of 8), and mem the same
// lengths shuffled, each after a seeded gap.  Almost every block of
// either side compiles to a group of its own, and the two sides' run ends
// almost never meet, so nearly every step of the lockstep is a piece.
func irrShaped(t testing.TB, n int, seed int64) (view, mem *datatype.Type) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	irrLen := func() int64 { return 8 + 8*r.Int63n(31) }
	lens, displs := make([]int64, n), make([]int64, n)
	var off int64
	for i := range lens {
		lens[i], displs[i] = irrLen(), off
		off += lens[i] + irrLen() // the other rank's block
	}
	view = hindexed(t, lens, displs, datatype.Byte)
	mlens := append([]int64(nil), lens...)
	r.Shuffle(len(mlens), func(i, j int) { mlens[i], mlens[j] = mlens[j], mlens[i] })
	mdispls := make([]int64, n)
	off = 0
	for i, l := range mlens {
		off += irrLen()
		mdispls[i] = off
		off += l
	}
	return view, hindexed(t, mlens, mdispls, datatype.Byte)
}

// TestPlanIrrShaped holds PlanFused to keeping the plan of the irr
// geometry's window in TestFusedVsWalkTable (which replays it both ways):
// a mean piece well above the decline bound, in a table under a quarter
// of the bytes it moves.
func TestPlanIrrShaped(t *testing.T) {
	view, mem := irrShaped(t, 2000, 1)
	const d0, n = 3001, 150000
	vp, mp := Compile(view), Compile(mem)
	lo, _ := walkBounds(view, d0, d0+n)
	plan := PlanFused(vp, d0, lo, mp, d0, 0, n)
	if plan == nil {
		t.Fatal("PlanFused declined the irr geometry")
	}
	if mean := n / int64(len(plan.pieces)); mean < 2*minPlanPiece {
		t.Errorf("mean piece %d bytes, want about 64", mean)
	}
	if plan.Bytes() > n/4 {
		t.Errorf("plan holds %d bytes for %d moved", plan.Bytes(), n)
	}
}

// TestPlanOutOfRange replays a plan into buffers one byte short on either
// side, in both directions: each must panic before it moves a byte,
// leaving both buffers as they were.
func TestPlanOutOfRange(t *testing.T) {
	view, mem := irrShaped(t, 200, 2)
	vp, mp := Compile(view), Compile(mem)
	n := view.Size()
	dLen, sLen := view.TrueUB(), mem.TrueUB()
	plan := PlanFused(vp, 0, 0, mp, 0, 0, n)
	if plan == nil {
		t.Fatal("PlanFused declined")
	}
	if plan.dEnd != dLen || plan.sEnd != sLen {
		t.Fatalf("plan spans dst[%d] src[%d], the types %d and %d", plan.dEnd, plan.sEnd, dLen, sLen)
	}
	for _, c := range []struct {
		name       string
		dLen, sLen int64
		back       bool
	}{
		{"dst-short", dLen - 1, sLen, false},
		{"src-short", dLen, sLen - 1, false},
		{"back-dst-short", dLen - 1, sLen, true},
		{"back-src-short", dLen, sLen - 1, true},
		{"dst-empty", 0, sLen, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			dst, src := bytes.Repeat([]byte{0xdd}, int(c.dLen)), bytes.Repeat([]byte{0x55}, int(c.sLen))
			func() {
				defer func() {
					if recover() == nil {
						t.Error("replay into a short buffer did not panic")
					}
				}()
				if c.back {
					plan.CopyBack(dst, src)
				} else {
					plan.Copy(dst, src)
				}
			}()
			if !bytes.Equal(dst, bytes.Repeat([]byte{0xdd}, len(dst))) {
				t.Error("dst was written before the panic")
			}
			if !bytes.Equal(src, bytes.Repeat([]byte{0x55}, len(src))) {
				t.Error("src was written before the panic")
			}
		})
	}
}

// TestPlanDeclines holds one cell to each decline rule, with a kept plan
// beside them for contrast.
func TestPlanDeclines(t *testing.T) {
	hv := func(count, blocklen, stride int64) *Program {
		t.Helper()
		dt, err := datatype.Hvector(count, blocklen, stride, datatype.Byte)
		if err != nil {
			t.Fatal(err)
		}
		return Compile(dt)
	}
	view, mem := irrShaped(t, 200, 3)
	vp, mp := Compile(view), Compile(mem)
	// Lengths 1 to 3 bytes: a piece that short costs what deciding it does.
	short := func(seed int64) *Program {
		r := rand.New(rand.NewSource(seed))
		lens, displs := make([]int64, 500), make([]int64, 500)
		var off int64
		for i := range lens {
			lens[i], displs[i] = 1+r.Int63n(3), off
			off += lens[i] + 1 + r.Int63n(3)
		}
		return Compile(hindexed(t, lens, displs, datatype.Byte))
	}
	for _, c := range []struct {
		name   string
		dp, sp *Program
		dbias  int64
		sd0, n int64
		keep   bool
		// what the recording must show for the rule to be the reason
		pieces, kerns bool
	}{
		{"irr-kept", vp, mp, 0, 0, view.Size(), true, true, true},
		// 8-byte runs on both sides at different strides: one kernRuns
		// call, no piece.
		{"all-batched", hv(512, 8, 16), hv(512, 8, 24), 0, 0, 4096, false, false, true},
		// Runs of 80 against runs of 80 half a run out of phase: every
		// step is a piece of 40 bytes.
		{"one-length", hv(256, 80, 128), hv(256, 80, 96), 0, 40, 80 * 255, false, true, false},
		{"mean-under-32", short(5), short(6), 0, 0, 600, false, true, true},
		// The view's window sits 4 GiB before its buffer: every index
		// into dst is past 32 bits.
		{"offset-past-32-bits", vp, mp, -(1 << 32), 0, view.Size(), false, false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			plan := PlanFused(c.dp, 0, c.dbias, c.sp, c.sd0, 0, c.n)
			if (plan != nil) != c.keep {
				t.Fatalf("PlanFused kept a plan: %v, want %v", plan != nil, c.keep)
			}
			var rec planRecorder
			lockstep(nil, c.dp, 0, c.dbias, nil, c.sp, c.sd0, 0, c.n, &rec)
			if (len(rec.pieces) > 0) != c.pieces || (len(rec.kerns) > 0) != c.kerns {
				t.Errorf("recorded %d pieces (%d bytes, mixed %v) and %d batched steps, overflow %v: not the cell's shape",
					len(rec.pieces), rec.bytes, rec.mixed, len(rec.kerns), rec.overflow)
			}
		})
	}
}

// BenchmarkFusedPlan holds the replay against the lockstep on one rank's
// 4 MiB share of the irr geometry, both ways.
func BenchmarkFusedPlan(b *testing.B) {
	view, mem := irrShaped(b, 32768, 1)
	vp, mp := Compile(view), Compile(mem)
	n := view.Size()
	dst, src := make([]byte, view.TrueUB()), make([]byte, mem.TrueUB())
	plan := PlanFused(vp, 0, 0, mp, 0, 0, n)
	if plan == nil {
		b.Fatal("PlanFused declined")
	}
	b.Run("lockstep", func(b *testing.B) {
		b.SetBytes(n)
		for i := 0; i < b.N; i++ {
			CopyFused(dst, vp, 0, 0, src, mp, 0, 0, n)
		}
	})
	b.Run("plan", func(b *testing.B) {
		b.SetBytes(n)
		for i := 0; i < b.N; i++ {
			plan.Copy(dst, src)
		}
	})
	b.Run("plan-back", func(b *testing.B) {
		b.SetBytes(n)
		for i := 0; i < b.N; i++ {
			plan.CopyBack(dst, src)
		}
	})
	b.Run("record", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			PlanFused(vp, 0, 0, mp, 0, 0, n)
		}
	})
}
