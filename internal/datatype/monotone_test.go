package datatype_test

import (
	"math/rand"
	"testing"

	"repro/internal/datatype"
	"repro/internal/datatype/datatypetest"
)

// walkMonotone is the oracle for Monotone: walk every run and look for
// one that starts before its predecessor ends.  It also reports the
// lowest offset, which validation needs non-negative, and whether every
// run abuts the one before, which is what Dense means.
func walkMonotone(t *datatype.Type) (mono bool, lowest int64, abutting bool) {
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
func wildType(r *rand.Rand, depth int) *datatype.Type {
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(6) {
		case 0:
			return datatype.LBMarker
		case 1:
			return datatype.UBMarker
		case 2:
			return datatypetest.RandomFiletype(r, 2)
		}
		leaves := []*datatype.Type{datatype.Byte, datatype.Int16, datatype.Int32, datatype.Double}
		return leaves[r.Intn(len(leaves))]
	}
	child := wildType(r, depth-1)
	ext := child.Extent()
	pick := func(lo, hi int64) int64 { return lo + r.Int63n(hi-lo+1) }
	var dt *datatype.Type
	var err error
	switch r.Intn(5) {
	case 0:
		dt, err = datatype.Contiguous(pick(0, 4), child)
	case 1:
		dt, err = datatype.Hvector(pick(0, 4), pick(0, 3), pick(-2*max(ext, -ext)-3, 4*max(ext, -ext)+3), child)
	case 2:
		n := 1 + r.Intn(4)
		bl, displs := make([]int64, n), make([]int64, n)
		pos := pick(-4, 4)
		for i := range bl {
			bl[i] = pick(0, 3)
			displs[i] = pos
			if r.Intn(4) == 0 {
				displs[i] = pick(-3*max(ext, -ext)-4, 3*max(ext, -ext)+4) // anywhere
			}
			pos += bl[i]*ext + pick(-2, 4)
		}
		dt, err = datatype.Hindexed(bl, displs, child)
	case 3:
		dt, err = datatype.Resized(child, pick(-4, 4), pick(-max(ext, -ext)-4, max(ext, -ext)+8))
	default:
		n := 1 + r.Intn(3)
		bl, displs, children := make([]int64, n), make([]int64, n), make([]*datatype.Type, n)
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
		dt, err = datatype.Struct(bl, displs, children)
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
	check := func(label string, dt *datatype.Type) bool {
		mono, lowest, abutting := walkMonotone(dt)
		if dt.Monotone() != mono {
			t.Errorf("%s %v: Monotone() = %v, the walk says %v", label, dt, dt.Monotone(), mono)
		}
		if dense := dt.Size() == 0 || abutting; dt.Dense() != dense {
			t.Errorf("%s %v: Dense() = %v, the walk says %v", label, dt, dt.Dense(), dense)
		}
		legal := mono && (dt.Size() == 0 || lowest >= 0)
		if err := datatype.ValidateMonotonic(dt, "filetype"); (err == nil) != legal {
			t.Errorf("%s %v: validation says %v, the walk says legal = %v", label, dt, err, legal)
		}
		return mono
	}
	for i := 0; i < 3000; i++ {
		if !check("filetype", datatypetest.RandomFiletype(r, 3)) {
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
	pair := must(datatype.Hindexed([]int64{1, 1}, []int64{0, 8}, datatype.Byte)) // span 9
	cases := []struct {
		name string
		dt   *datatype.Type
		want bool
	}{
		{"stride clears a block", must(datatype.Hvector(3, 2, 8, datatype.Int32)), true},
		{"stride one short", must(datatype.Hvector(3, 2, 7, datatype.Int32)), false},
		{"negative stride", must(datatype.Hvector(2, 1, -8, datatype.Double)), false},
		{"single block, negative stride", must(datatype.Hvector(1, 1, -8, datatype.Double)), true},
		{"extent clears the span", must(datatype.Contiguous(3, must(datatype.Resized(pair, 0, 9)))), true},
		{"extent one short", must(datatype.Contiguous(3, must(datatype.Resized(pair, 0, 8)))), false},
		{"negative extent, one instance", must(datatype.Contiguous(1, must(datatype.Resized(datatype.Double, 0, -8)))), true},
		{"negative extent, two instances", must(datatype.Contiguous(2, must(datatype.Resized(datatype.Double, 0, -8)))), false},
		{"empty blocks between", must(datatype.Hindexed([]int64{1, 0, 1}, []int64{8, 0, 16}, datatype.Double)), true},
		{"members reversed", must(datatype.Struct([]int64{1, 1}, []int64{8, 0}, []*datatype.Type{datatype.Double, datatype.Double})), false},
		{"markers anywhere", must(datatype.Struct([]int64{1, 1, 1}, []int64{64, 0, -8}, []*datatype.Type{datatype.LBMarker, datatype.Double, datatype.UBMarker})), true},
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

// must is the type a constructor built, or a panic with its error.
func must(dt *datatype.Type, err error) *datatype.Type {
	if err != nil {
		panic(err)
	}
	return dt
}
