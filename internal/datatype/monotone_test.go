package datatype

import (
	"math/rand"
	"testing"
)

// walkMonotone is the oracle for Monotone: walk every run and look for
// one that starts before its predecessor ends.  It also reports the
// lowest offset, which validation needs non-negative, and whether every
// run abuts the one before, which is what Dense means.
func walkMonotone(t *Type) (mono bool, lowest int64, abutting bool) {
	mono, abutting = true, true
	prevEnd, runs := int64(0), 0
	t.Walk(func(off, length int64) {
		if runs == 0 || off < lowest {
			lowest = off
		}
		if runs > 0 {
			mono = mono && off >= prevEnd
			abutting = abutting && off == prevEnd
		}
		prevEnd = off + length
		runs++
	})
	return mono, lowest, abutting
}

// wildType builds a random tree with none of RandomFiletype's care:
// negative and short strides, unsorted and negative displacements,
// negative and shrunken extents, LB/UB markers and zero-length blocks,
// and now and then a legal filetype as a subtree.
func wildType(r *rand.Rand, depth int) *Type {
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(6) {
		case 0:
			return LBMarker
		case 1:
			return UBMarker
		case 2:
			return RandomFiletype(r, 2)
		}
		leaves := []*Type{Byte, Int16, Int32, Double}
		return leaves[r.Intn(len(leaves))]
	}
	child := wildType(r, depth-1)
	ext := child.Extent()
	pick := func(lo, hi int64) int64 { return lo + r.Int63n(hi-lo+1) }
	var dt *Type
	var err error
	switch r.Intn(5) {
	case 0:
		dt, err = Contiguous(pick(0, 4), child)
	case 1:
		dt, err = Hvector(pick(0, 4), pick(0, 3), pick(-2*abs64(ext)-3, 4*abs64(ext)+3), child)
	case 2:
		n := 1 + r.Intn(4)
		bl, displs := make([]int64, n), make([]int64, n)
		pos := pick(-4, 4)
		for i := range bl {
			bl[i] = pick(0, 3)
			displs[i] = pos
			if r.Intn(4) == 0 {
				displs[i] = pick(-3*abs64(ext)-4, 3*abs64(ext)+4) // anywhere
			}
			pos += bl[i]*ext + pick(-2, 4)
		}
		dt, err = Hindexed(bl, displs, child)
	case 3:
		dt, err = Resized(child, pick(-4, 4), pick(-abs64(ext)-4, abs64(ext)+8))
	default:
		n := 1 + r.Intn(3)
		bl, displs, children := make([]int64, n), make([]int64, n), make([]*Type, n)
		pos := pick(-4, 4)
		for i := range bl {
			children[i] = wildType(r, depth-1)
			bl[i] = pick(0, 2)
			displs[i] = pos
			if r.Intn(4) == 0 {
				displs[i] = pick(-16, 32)
			}
			pos += bl[i]*children[i].Extent() + pick(-3, 5)
		}
		dt, err = Struct(bl, displs, children)
	}
	if err != nil {
		return child
	}
	return dt
}

// TestQuickMonotoneVsWalk holds the structural flags to the walk: the
// monotone flag must equal the walk's verdict, validation must accept
// exactly the monotone types whose lowest run is not negative, and a
// type is dense exactly when its runs abut in order.
func TestQuickMonotoneVsWalk(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	check := func(label string, dt *Type) bool {
		mono, lowest, abutting := walkMonotone(dt)
		if dt.Monotone() != mono {
			t.Errorf("%s %v: Monotone() = %v, the walk says %v", label, dt, dt.Monotone(), mono)
		}
		if dense := dt.Size() == 0 || abutting; dt.Dense() != dense {
			t.Errorf("%s %v: Dense() = %v, the walk says %v", label, dt, dt.Dense(), dense)
		}
		legal := mono && (dt.Size() == 0 || lowest >= 0)
		if err := validateMonotonic(dt, "filetype"); (err == nil) != legal {
			t.Errorf("%s %v: validation says %v, the walk says legal = %v", label, dt, err, legal)
		}
		return mono
	}
	for i := 0; i < 3000; i++ {
		if !check("filetype", RandomFiletype(r, 3)) {
			t.Fatal("RandomFiletype returned a type the walk calls not monotone")
		}
	}
	verdicts := map[bool]int{}
	for verdicts[true]+verdicts[false] < 3000 {
		if dt := wildType(r, 3); dt.Size() > 0 {
			verdicts[check("wild", dt)]++
		}
	}
	if verdicts[false] < 500 {
		t.Errorf("verdicts %v: the generator no longer produces both outcomes", verdicts)
	}
}

// TestMonotoneEdges pins the rule's boundaries: a stride or extent that
// exactly clears the span is monotone, one byte less is not.
func TestMonotoneEdges(t *testing.T) {
	pair := mustHindexed(t, []int64{1, 1}, []int64{0, 8}, Byte) // span 9
	cases := []struct {
		name string
		dt   *Type
		want bool
	}{
		{"stride clears a block", mustHvector(t, 3, 2, 8, Int32), true},
		{"stride one short", mustHvector(t, 3, 2, 7, Int32), false},
		{"negative stride", mustHvector(t, 2, 1, -8, Double), false},
		{"single block, negative stride", mustHvector(t, 1, 1, -8, Double), true},
		{"extent clears the span", mustContig(t, 3, mustResized(t, pair, 0, 9)), true},
		{"extent one short", mustContig(t, 3, mustResized(t, pair, 0, 8)), false},
		{"negative extent, one instance", mustContig(t, 1, mustResized(t, Double, 0, -8)), true},
		{"negative extent, two instances", mustContig(t, 2, mustResized(t, Double, 0, -8)), false},
		{"empty blocks between", mustHindexed(t, []int64{1, 0, 1}, []int64{8, 0, 16}, Double), true},
		{"members reversed", mustStruct(t, []int64{1, 1}, []int64{8, 0}, []*Type{Double, Double}), false},
		{"markers anywhere", mustStruct(t, []int64{1, 1, 1}, []int64{64, 0, -8}, []*Type{LBMarker, Double, UBMarker}), true},
	}
	for _, c := range cases {
		if got := c.dt.Monotone(); got != c.want {
			t.Errorf("%s: Monotone() = %v, want %v", c.name, got, c.want)
		}
		if mono, _, _ := walkMonotone(c.dt); mono != c.want {
			t.Errorf("%s: the walk says %v, want %v", c.name, mono, c.want)
		}
	}
}

func mustHindexed(t *testing.T, bl, displs []int64, c *Type) *Type {
	t.Helper()
	dt, err := Hindexed(bl, displs, c)
	if err != nil {
		t.Fatal(err)
	}
	return dt
}

func mustHvector(t *testing.T, count, bl, stride int64, c *Type) *Type {
	t.Helper()
	dt, err := Hvector(count, bl, stride, c)
	if err != nil {
		t.Fatal(err)
	}
	return dt
}

func mustResized(t *testing.T, c *Type, lb, ext int64) *Type {
	t.Helper()
	dt, err := Resized(c, lb, ext)
	if err != nil {
		t.Fatal(err)
	}
	return dt
}

func mustStruct(t *testing.T, bl, displs []int64, cs []*Type) *Type {
	t.Helper()
	dt, err := Struct(bl, displs, cs)
	if err != nil {
		t.Fatal(err)
	}
	return dt
}
