package datatype_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datatype"
	"repro/internal/datatype/datatypetest"
)

// TestDatatypetestLB: datatypetest.LB reads explicit and implied lower
// bounds, negative and positive, which the random trees seldom draw.
func TestDatatypetestLB(t *testing.T) {
	neg, _ := datatype.Resized(datatype.Int32, -7, 20)
	marked, _ := datatype.Struct([]int64{1, 1}, []int64{5, 12}, []*datatype.Type{datatype.LBMarker, datatype.Int64})
	vec, _ := datatype.Hvector(3, 1, 16, neg)
	for _, dt := range []*datatype.Type{datatype.Byte, neg, marked, vec} {
		if got, want := datatypetest.LB(dt), datatype.LowerBound(dt); got != want {
			t.Errorf("datatypetest.LB(%s) = %d, want %d", dt, got, want)
		}
	}
}

func TestQuickWalkInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		dt := datatypetest.RandomFiletype(rr, 3)
		var total int64
		prevEnd := int64(-1)
		lo, hi := int64(1<<62), int64(-1)
		ok := true
		dt.Walk(func(off, length int64) {
			if length <= 0 || off < 0 {
				ok = false
			}
			if off < prevEnd {
				ok = false
			}
			prevEnd = off + length
			total += length
			if off < lo {
				lo = off
			}
			if off+length > hi {
				hi = off + length
			}
		})
		if !ok {
			t.Logf("bad walk for %s", dt)
			return false
		}
		if total != dt.Size() {
			t.Logf("size mismatch for %s: walk=%d size=%d", dt, total, dt.Size())
			return false
		}
		if lo != dt.TrueLB() || hi != dt.TrueUB() {
			t.Logf("true bounds mismatch for %s: walk=[%d,%d) true=[%d,%d)",
				dt, lo, hi, dt.TrueLB(), dt.TrueUB())
			return false
		}
		lb := datatype.LowerBound(dt)
		if got := datatypetest.LB(dt); got != lb {
			t.Logf("datatypetest.LB(%s) = %d, want %d", dt, got, lb)
			return false
		}
		if hi > lb+dt.Extent() || lo < lb {
			t.Logf("data outside [lb,ub) for %s", dt)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEncodeDecode(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		dt := datatypetest.RandomFiletype(rr, 3)
		got, err := datatype.Decode(datatype.Encode(dt))
		if err != nil {
			t.Logf("decode(%s): %v", dt, err)
			return false
		}
		if got.Size() != dt.Size() || got.Extent() != dt.Extent() || got.Blocks() != dt.Blocks() {
			return false
		}
		var a, b []int64
		dt.Walk(func(off, length int64) { a = append(a, off, length) })
		got.Walk(func(off, length int64) { b = append(b, off, length) })
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDensityMatchesWalk(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		dt := datatypetest.RandomFiletype(rr, 3)
		// Reference density: coalesce the walk; dense iff one run.
		runs := 0
		last := int64(-1)
		dt.Walk(func(off, length int64) {
			if runs > 0 && off == last {
				last += length
				return
			}
			runs++
			last = off + length
		})
		wantDense := runs <= 1
		if dt.Dense() != wantDense {
			t.Logf("density mismatch for %s: dense=%v runs=%d", dt, dt.Dense(), runs)
			return false
		}
		if wantDense && dt.Blocks() > 1 {
			t.Logf("dense type %s reports %d blocks", dt, dt.Blocks())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
