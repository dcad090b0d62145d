package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datatype"
	"repro/internal/datatype/datatypetest"
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

// viewsOf makes the types views of extent ext, each with the program
// the handles' cache gives it, as setView does.
func viewsOf(t testing.TB, ext int64, types ...*datatype.Type) []remoteView {
	t.Helper()
	var f File
	views := make([]remoteView, len(types))
	for i, ft := range types {
		ft, err := datatype.Resized(ft, 0, ext)
		if err != nil {
			t.Fatal(err)
		}
		views[i] = remoteView{ftype: ft, fsize: ft.Size(), fext: ext, prog: f.lookupProgram(nil, ft)}
	}
	return views
}

// declined returns views with the programs of those picked dropped, as
// if their compile had been declined: their groups come from the tree.
func declined(views []remoteView, pick func(i int) bool) []remoteView {
	out := append([]remoteView(nil), views...)
	for i := range out {
		if pick(i) {
			out[i].prog = nil
		}
	}
	return out
}

// checkDisjoint holds viewsDisjoint to the oracle, as compiled and with
// every view declined, and reports the verdict.
func checkDisjoint(t testing.TB, label string, views []remoteView, ext int64) bool {
	t.Helper()
	want := sortedDisjoint(views, ext)
	got, walked := viewsDisjoint(views, ext)
	if got != want {
		t.Fatalf("%s: viewsDisjoint = %v, the sort says %v", label, got, want)
	}
	compiled := true
	for _, v := range views {
		compiled = compiled && (v.prog != nil || v.ftype.ContiguousTiled())
	}
	if compiled && walked != 0 {
		t.Fatalf("%s: every view compiled, yet %d runs were fetched from the trees", label, walked)
	}
	if got, _ := viewsDisjoint(declined(views, func(int) bool { return true }), ext); got != want {
		t.Fatalf("%s: with every view declined viewsDisjoint = %v, the sort says %v", label, got, want)
	}
	return want
}

func shifted(t testing.TB, ft *datatype.Type, by int64) *datatype.Type {
	t.Helper()
	dt, err := datatype.Struct([]int64{1}, []int64{by}, []*datatype.Type{ft})
	if err != nil {
		t.Fatal(err)
	}
	return dt
}

func TestViewsDisjoint(t *testing.T) {
	const n = 20000                  // runs: more than one fetch of a declined view holds
	vec8 := hvecBytes(n, 8, 16)      // [0,8) of every 16 bytes
	quarter := hvecBytes(n/4, 8, 64) // every fourth of vec8's runs
	half := hvecBytes(n/2, 8, 32)
	ext := vec8.Extent() + 8
	last := int64(n-1) * 16 // vec8's last run
	cases := []struct {
		name  string
		views []remoteView
		want  bool
	}{
		{"interleaved partition", viewsOf(t, ext, vec8, shifted(t, vec8, 8)), true},
		{"same view twice", viewsOf(t, ext, vec8, vec8), false},
		{"one byte of overlap", viewsOf(t, ext, vec8, shifted(t, vec8, 7)), false},
		{"overlap only at the last run", viewsOf(t, ext, vec8, shifted(t, datatype.Byte, ext-9)), false},
		{"gap at the last run", viewsOf(t, ext, vec8, shifted(t, datatype.Byte, ext-8)), true},
		{"data past the extent", viewsOf(t, ext-1, vec8, shifted(t, vec8, 8)), false},
		{"single view", viewsOf(t, ext, vec8), true},
		{"strides 16 and 64, apart", viewsOf(t, ext, vec8, shifted(t, quarter, 8), shifted(t, quarter, 40)), true},
		{"strides 16 and 64, one byte of overlap", viewsOf(t, ext, vec8, shifted(t, quarter, 8), shifted(t, quarter, 39)), false},
		{"two runs far apart, both in gaps", viewsOf(t, ext, vec8, shifted(t, hvecBytes(2, 8, last), 8)), true},
		{"two runs far apart, the second on the last run", viewsOf(t, ext, vec8, shifted(t, hvecBytes(2, 8, last-8), 8)), false},
		{"strides 32 and 64, nested", viewsOf(t, ext, half, shifted(t, quarter, 8), shifted(t, quarter, 40), shifted(t, half, 16)), true},
		{"strides 32 and 64, nested, one moved", viewsOf(t, ext, half, shifted(t, quarter, 8), shifted(t, quarter, 44), shifted(t, half, 16)), false},
		{"overlap with a hole", viewsOf(t, 100, shifted(t, datatype.Byte, 0), mustType(datatype.Hindexed([]int64{20, 30}, []int64{0, 70}, datatype.Byte))), false},
	}
	for _, c := range cases {
		if got := checkDisjoint(t, c.name, c.views, c.views[0].fext); got != c.want {
			t.Errorf("%s: verdict %v, want %v", c.name, got, c.want)
		}
	}
}

// dealtViews deals the runs of a random filetype out to P views, which
// makes them disjoint, then now and then moves one view by a few bytes,
// which may or may not make them collide.
func dealtViews(t *testing.T, r *rand.Rand, P int) ([]*datatype.Type, int64) {
	whole := datatypetest.RandomFiletype(r, 3)
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
		types = append(types, mustType(datatype.Hindexed(bl[k], displs[k], datatype.Byte)))
	}
	return types, whole.Extent() + int64(r.Intn(3))
}

// progressionViews makes P regular views, each one progression of runs:
// the Figure 4 interleave (one stride, the ranks a run apart),
// a split of the residues of a pitch into classes of several moduli
// (disjoint with unequal strides), and 2-D subarray blocks of a grid,
// sometimes grown by a ghost ring.  Now and then a view is moved by a
// few bytes, which may make it collide.
func progressionViews(r *rand.Rand, P int) ([]*datatype.Type, int64) {
	run := int64(1 + r.Intn(12))
	n := int64(1 + r.Intn(48))
	types := make([]*datatype.Type, P)
	var ext int64
	switch r.Intn(3) {
	case 0: // Figure 4
		pitch := int64(P)*run + int64(r.Intn(3))
		for k := range types {
			types[k] = mustType(datatype.Struct([]int64{1}, []int64{int64(k) * run}, []*datatype.Type{hvecBytes(n, run, pitch)}))
		}
		ext = n * pitch
	case 1: // residue classes a mod m of the slots of a pitch, split in halves
		classes := [][2]int64{{0, 1}}
		for len(classes) < P {
			i := r.Intn(len(classes))
			a, m := classes[i][0], classes[i][1]
			classes[i] = [2]int64{a, 2 * m}
			classes = append(classes, [2]int64{a + m, 2 * m})
		}
		pitch := run + int64(r.Intn(3))
		var slots int64 = 1
		for _, c := range classes {
			slots = max(slots, c[1])
		}
		slots *= n
		for k, c := range classes {
			a, m := c[0], c[1]
			types[k] = mustType(datatype.Struct([]int64{1}, []int64{a * pitch}, []*datatype.Type{hvecBytes(slots/m, run, m*pitch)}))
		}
		ext = slots * pitch
	default: // subarray blocks of a rows x cols grid of elem-byte elements
		rows, cols := int64(2+r.Intn(12)), int64(2+r.Intn(12))
		ring := int64(0)
		if r.Intn(3) == 0 {
			ring = 1
		}
		elem := mustType(datatype.Contiguous(run, datatype.Byte))
		tiles := P%2 == 0 && r.Intn(2) == 0
		for k := range types {
			var r0, r1, c0, c1 int64
			if tiles { // 2 x P/2 tiles
				half := int64(P / 2)
				r0, r1 = int64(k/(P/2))*rows/2, int64(k/(P/2)+1)*rows/2
				c0, c1 = int64(k%(P/2))*cols/half, int64(k%(P/2)+1)*cols/half
			} else { // column strips: one stride for every view
				r0, r1 = 0, rows
				c0, c1 = int64(k)*cols/int64(P), int64(k+1)*cols/int64(P)
			}
			r0, c0, r1, c1 = max(r0-ring, 0), max(c0-ring, 0), min(r1+ring, rows), min(c1+ring, cols)
			if r1 <= r0 || c1 <= c0 {
				r0, r1, c0, c1 = 0, 1, 0, 1 // a strip the split left empty
			}
			types[k] = mustType(datatype.Subarray([]int64{rows, cols}, []int64{r1 - r0, c1 - c0}, []int64{r0, c0}, datatype.OrderC, elem))
		}
		ext = rows * cols * run
	}
	if r.Intn(4) == 0 {
		k := r.Intn(P)
		types[k] = mustType(datatype.Struct([]int64{1}, []int64{int64(1 + r.Intn(4))}, []*datatype.Type{types[k]}))
	}
	if r.Intn(8) == 0 {
		ext-- // data past the extent, where the last byte of a view is the extent's
	}
	return types, ext
}

// TestQuickViewsDisjointVsSort holds the group sweep to
// materialise-and-sort over random view sets of P = 2..5: dealt runs of
// random filetypes and regular progressions, with some views declined.
func TestQuickViewsDisjointVsSort(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	verdicts := map[bool]int{}
	for trial := 0; trial < 3000; trial++ {
		P := 2 + r.Intn(4)
		var types []*datatype.Type
		var ext int64
		if trial%3 == 0 {
			types, ext = dealtViews(t, r, P)
		} else {
			types, ext = progressionViews(r, P)
		}
		if len(types) == 0 {
			continue
		}
		views := viewsOf(t, ext, types...)
		if r.Intn(5) == 0 {
			views = declined(views, func(int) bool { return r.Intn(2) == 0 })
		}
		verdicts[checkDisjoint(t, "random set", views, ext)]++
	}
	if verdicts[true] < 500 || verdicts[false] < 500 {
		t.Errorf("verdicts %v: the generators no longer produce both outcomes", verdicts)
	}
}

// FuzzViewsDisjoint builds P = 2..5 views of one or two progressions of
// runs each from the input and holds the group sweep to the sort.
func FuzzViewsDisjoint(f *testing.F) {
	f.Add([]byte{2, 0, 8, 16, 40, 8, 8, 16, 40})                // Figure 4
	f.Add([]byte{2, 0, 8, 16, 40, 7, 8, 16, 40})                // one byte of overlap
	f.Add([]byte{3, 0, 8, 32, 20, 8, 8, 64, 10, 40, 8, 64, 10}) // nested strides
	f.Add([]byte{2, 0, 4, 12, 9, 4, 4, 12, 9, 0, 0, 0, 0, 255}) // two groups, one view declined
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int64 {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int64(b)
		}
		P := 2 + int(next())%4
		types := make([]*datatype.Type, P)
		var ext int64
		for k := range types {
			var blocks, displs []int64
			var kids []*datatype.Type
			end := int64(0)
			for g := 0; g < 2; g++ {
				base, run, stride, n := next(), 1+next()%16, next(), 1+next()%64
				if g == 1 && n == 1 && base == 0 {
					break // no second progression
				}
				stride = max(stride, run) // a view is monotone
				blocks, displs = append(blocks, 1), append(displs, end+base)
				kids = append(kids, hvecBytes(n, run, stride))
				end += base + (n-1)*stride + run
			}
			types[k] = mustType(datatype.Struct(blocks, displs, kids))
			ext = max(ext, end)
		}
		ext += next()%3 - 1
		decline := next()
		views := declined(viewsOf(t, ext, types...), func(i int) bool { return decline>>i&1 != 0 })
		checkDisjoint(t, "fuzzed set", views, ext)
	})
}

// TestSetViewVisitsNoRun: SetView decides the Figure 4 views disjoint
// from their compiled groups alone, at N_block 1 024 as at 524 288: no
// run is fetched from a tree, and the decision — validation included —
// allocates the same at both sizes.
func TestSetViewVisitsNoRun(t *testing.T) {
	defer func(old int64) { compileBlocks = old }(compileBlocks)
	compileBlocks = math.MaxInt64 // the tests' lowered bound would decline N_block 524 288
	const P = 2
	allocs := map[int64]float64{}
	for _, nblock := range []int64{1024, 524288} {
		var views []remoteView
		var ft0 *datatype.Type
		world{P: P}.run(t, nil, func(r rank) {
			ft := noncontigTypeP(r.p.Rank(), P, nblock, 8)
			if err := r.f.SetView(0, datatype.Byte, ft); err != nil {
				panic(err)
			}
			if e := r.f.eng.(*listlessEngine); r.p.Rank() == 0 {
				if !e.disjoint {
					panic("the Figure 4 views were not proved disjoint")
				}
				views, ft0 = e.remote, ft
			}
		})
		for r, v := range views {
			if v.prog == nil {
				t.Fatalf("N_block %d: rank %d's view did not compile", nblock, r)
			}
		}
		if ok, walked := viewsDisjoint(views, views[0].fext); !ok || walked != 0 {
			t.Fatalf("N_block %d: viewsDisjoint = %v after fetching %d runs from the trees, want true after 0", nblock, ok, walked)
		}
		allocs[nblock] = testing.AllocsPerRun(20, func() {
			if datatype.ValidateFiletype(datatype.Byte, ft0) != nil || !viewsApart(views) {
				panic("verdict changed")
			}
		})
	}
	if allocs[1024] != allocs[524288] {
		t.Errorf("SetView's checks allocate %v times at N_block 1 024 and %v at 524 288", allocs[1024], allocs[524288])
	}
}
