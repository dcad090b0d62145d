package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datatype"
)

// sortedDisjoint is the oracle for viewsDisjoint: materialise every run
// of every view, sort, and look for a run that starts before its
// predecessor ends or leaves [0, ext).
func sortedDisjoint(views []remoteView, ext int64) bool {
	var segs [][2]int64
	for _, v := range views {
		v.ftype.Walk(func(off, length int64) { segs = append(segs, [2]int64{off, off + length}) })
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i][0] < segs[j][0] })
	prevEnd := int64(0)
	for _, s := range segs {
		if s[0] < prevEnd {
			return false
		}
		prevEnd = s[1]
	}
	return prevEnd <= ext
}

func viewsOf(t *testing.T, ext int64, types ...*datatype.Type) []remoteView {
	t.Helper()
	views := make([]remoteView, len(types))
	for i, ft := range types {
		ft, err := datatype.Resized(ft, 0, ext)
		if err != nil {
			t.Fatal(err)
		}
		views[i] = remoteView{ftype: ft, fsize: ft.Size(), fext: ext}
	}
	return views
}

func TestViewsDisjoint(t *testing.T) {
	shifted := func(ft *datatype.Type, by int64) *datatype.Type {
		dt, err := datatype.Struct([]int64{1}, []int64{by}, []*datatype.Type{ft})
		if err != nil {
			t.Fatal(err)
		}
		return dt
	}
	vec8, err := datatype.Vector(100000, 8, 16, datatype.Byte) // more runs than one fetch holds
	if err != nil {
		t.Fatal(err)
	}
	ext := vec8.Extent() + 8
	cases := []struct {
		name  string
		views []remoteView
		want  bool
	}{
		{"interleaved partition", viewsOf(t, ext, vec8, shifted(vec8, 8)), true},
		{"same view twice", viewsOf(t, ext, vec8, vec8), false},
		{"one byte of overlap", viewsOf(t, ext, vec8, shifted(vec8, 7)), false},
		{"overlap only at the last run", viewsOf(t, ext, vec8, shifted(datatype.Byte, ext-9)), false},
		{"gap at the last run", viewsOf(t, ext, vec8, shifted(datatype.Byte, ext-8)), true},
		{"data past the extent", viewsOf(t, ext-1, vec8, shifted(vec8, 8)), false},
		{"single view", viewsOf(t, ext, vec8), true},
	}
	for _, c := range cases {
		if got := viewsDisjoint(c.views, c.views[0].fext); got != c.want {
			t.Errorf("%s: viewsDisjoint = %v, want %v", c.name, got, c.want)
		}
		if got := sortedDisjoint(c.views, c.views[0].fext); got != c.want {
			t.Errorf("%s: the oracle says %v, want %v", c.name, got, c.want)
		}
	}
}

// TestQuickViewsDisjointVsSort deals the runs of a random filetype out
// to P views, which makes them disjoint, then now and then moves one
// view by a few bytes, which may or may not make them collide; the
// streaming merge must agree with materialise-and-sort either way.
func TestQuickViewsDisjointVsSort(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	verdicts := map[bool]int{}
	for trial := 0; trial < 400; trial++ {
		whole := datatype.RandomFiletype(r, 3)
		P := 1 + r.Intn(4)
		bl := make([][]int64, P)
		displs := make([][]int64, P)
		i := 0
		whole.Walk(func(off, length int64) {
			k := i % P
			if r.Intn(4) == 0 {
				k = r.Intn(P) // uneven deals too
			}
			bl[k] = append(bl[k], length)
			displs[k] = append(displs[k], off)
			i++
		})
		ext := whole.Extent() + int64(r.Intn(3))
		var types []*datatype.Type
		for k := 0; k < P; k++ {
			if len(bl[k]) == 0 {
				continue
			}
			if r.Intn(6) == 0 {
				for j := range displs[k] {
					displs[k][j] += int64(1 + r.Intn(4))
				}
			}
			ft, err := datatype.Hindexed(bl[k], displs[k], datatype.Byte)
			if err != nil {
				t.Fatal(err)
			}
			types = append(types, ft)
		}
		if len(types) == 0 {
			continue
		}
		views := viewsOf(t, ext, types...)
		got, want := viewsDisjoint(views, ext), sortedDisjoint(views, ext)
		if got != want {
			t.Fatalf("trial %d (%v dealt to %d views): viewsDisjoint = %v, sort says %v", trial, whole, P, got, want)
		}
		verdicts[want]++
	}
	if verdicts[true] < 40 || verdicts[false] < 40 {
		t.Errorf("verdicts %v: the generator no longer produces both outcomes", verdicts)
	}
}
