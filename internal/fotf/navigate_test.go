package fotf

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/datatype"
)

// The navigation oracle: every answer below is computed from the runs
// (*datatype.Type).Walk lists for one instance, in type-map order, and
// from nothing else — no prefix sums, no tree, no sortedness assumption.

type navOracle struct {
	runs      [][2]int64 // (offset, length) in type-map order
	size, ext int64
}

func newNavOracle(dt *datatype.Type) navOracle {
	o := navOracle{size: dt.Size(), ext: dt.Extent()}
	dt.Walk(func(off, length int64) { o.runs = append(o.runs, [2]int64{off, length}) })
	return o
}

// bufToData counts, run by run, the bytes of every instance i >= 0 that
// lie below off.  Instances wholly below are counted by division so that
// an offset a billion tiles out costs what one in tile 0 does; the
// instances a run straddles off in are visited one by one.
func (o navOracle) bufToData(off int64) int64 {
	var d int64
	for _, r := range o.runs {
		x := off - r[0] // instance i holds min(max(x-i*ext, 0), len) bytes of this run below off
		var i int64
		if x >= r[1] {
			i = (x-r[1])/o.ext + 1 // instances with i*ext <= x-len hold len
			d += i * r[1]
		}
		for ; i*o.ext < x; i++ {
			d += min(x-i*o.ext, r[1])
		}
	}
	return d
}

func (o navOracle) startPos(d int64) int64 {
	k := d / o.size
	rem := d - k*o.size
	for _, r := range o.runs {
		if rem < r[1] {
			return k*o.ext + r[0] + rem
		}
		rem -= r[1]
	}
	panic("unreachable: rem < size")
}

func (o navOracle) endPos(d int64) int64 {
	if d == 0 {
		return o.startPos(0)
	}
	return o.startPos(d-1) + 1
}

func (o navOracle) typeExtent(skip, size int64) int64 {
	if size <= 0 {
		return 0
	}
	return o.endPos(skip+size) - o.startPos(skip)
}

func (o navOracle) typeSize(skip, extent int64) int64 {
	if extent <= 0 {
		return 0
	}
	return o.bufToData(o.startPos(skip)+extent) - skip
}

// farTile is how many tiles out the hostile offsets go.
const farTile = 1 << 30

// checkNavigation holds the five navigation functions to the oracle on
// dt at hostile and random offsets: negative, extent multiples, every
// run edge of a near and a far tile and its neighbours, and uniform
// ones.  extraOff and extraData are caller-chosen (fuzzed) additions.
func checkNavigation(dt *datatype.Type, r *rand.Rand, extraOff, extraData int64) error {
	o := newNavOracle(dt)
	offs := []int64{extraOff, -1, -o.ext, -farTile * o.ext, 0, 1}
	for _, k := range []int64{1, 2, 3, farTile} {
		offs = append(offs, k*o.ext-1, k*o.ext, k*o.ext+1)
	}
	for _, run := range o.runs {
		for _, k := range []int64{0, 2, farTile} {
			for _, e := range []int64{run[0], run[0] + run[1]} {
				offs = append(offs, k*o.ext+e-1, k*o.ext+e, k*o.ext+e+1)
			}
		}
	}
	for i := 0; i < 16; i++ {
		offs = append(offs, r.Int63n(4*o.ext+1)-o.ext, farTile*o.ext+r.Int63n(o.ext))
	}
	for _, off := range offs {
		if got, want := BufToData(dt, off), o.bufToData(off); got != want {
			return fmt.Errorf("BufToData(%d) = %d, oracle %d", off, got, want)
		}
	}

	datas := []int64{extraData, 0, 1, o.size - 1, o.size, o.size + 1, 3 * o.size, farTile * o.size, farTile*o.size + o.size - 1}
	var cum int64
	for _, run := range o.runs { // run edges in data space
		cum += run[1]
		datas = append(datas, cum-1, cum%o.size, 2*o.size+cum-1, farTile*o.size+cum-1)
	}
	for i := 0; i < 16; i++ {
		datas = append(datas, r.Int63n(3*o.size))
	}
	for _, d := range datas {
		if d < 0 {
			continue
		}
		if got, want := StartPos(dt, d), o.startPos(d); got != want {
			return fmt.Errorf("StartPos(%d) = %d, oracle %d", d, got, want)
		}
		if got, want := EndPos(dt, d), o.endPos(d); got != want {
			return fmt.Errorf("EndPos(%d) = %d, oracle %d", d, got, want)
		}
		n := 1 + r.Int63n(2*o.size)
		if got, want := TypeExtent(dt, d, n), o.typeExtent(d, n); got != want {
			return fmt.Errorf("TypeExtent(%d, %d) = %d, oracle %d", d, n, got, want)
		}
		e := r.Int63n(2*o.ext) - o.ext/4 // sometimes <= 0
		if got, want := TypeSize(dt, d, e), o.typeSize(d, e); got != want {
			return fmt.Errorf("TypeSize(%d, %d) = %d, oracle %d", d, e, got, want)
		}
	}
	return nil
}

// FuzzNavigateVsOracle is the differential fuzzer of the navigation
// layer: the fuzzed seed drives the random tree generator (zero-length
// blocks, explicit bounds via Resized, holes, indexed in vector in
// struct), the fuzzed words add one buffer offset — any sign, up to
// tile tiles out — and one data offset to the battery of
// checkNavigation.
func FuzzNavigateVsOracle(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 12; i++ {
		f.Add(r.Int63(), r.Int63n(1<<20)-1<<19, uint32(r.Intn(1<<20)), uint32(r.Intn(1<<20)))
	}
	f.Add(int64(0), int64(0), uint32(0), uint32(0))
	f.Add(int64(-1), int64(-1), uint32(1<<31), uint32(1<<31))
	f.Fuzz(func(t *testing.T, seed, off int64, tile, data uint32) {
		r := rand.New(rand.NewSource(seed))
		dt := datatype.RandomFiletype(r, 2+int(uint16(seed)%3))
		ext := dt.Extent()
		off = int64(tile)*ext + off%(2*ext)
		if err := checkNavigation(dt, r, off, int64(data)); err != nil {
			t.Fatalf("type %v: %v", dt, err)
		}
	})
}

// TestQuickNavigateVsOracle is the always-on slice of the fuzzer.
func TestQuickNavigateVsOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dt := datatype.RandomFiletype(r, 2+int(uint16(seed)%3))
		if err := checkNavigation(dt, r, r.Int63n(1<<40)-1<<39, r.Int63n(1<<40)); err != nil {
			t.Logf("type %v: %v", dt, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func hindexed(t testing.TB, blocklens, displs []int64, child *datatype.Type) *datatype.Type {
	t.Helper()
	dt, err := datatype.Hindexed(blocklens, displs, child)
	if err != nil {
		t.Fatal(err)
	}
	return dt
}

// TestSortedNodeDetection pins which nodes take the binary search and
// which the block-by-block sum, and that both are exact: the choice
// follows from the node's own displacements, and an empty block's
// displacement is never consulted.
func TestSortedNodeDetection(t *testing.T) {
	pair := vec(t, 2, 1, 3, datatype.Int32) // two 4-byte runs, 12 apart; extent 16
	rank0 := vec(t, 8, 8, 16, datatype.Byte)
	rank1, err := datatype.Struct([]int64{1}, []int64{8}, []*datatype.Type{rank0})
	if err != nil {
		t.Fatal(err)
	}
	merge, err := datatype.Struct([]int64{1, 1}, []int64{0, 0}, []*datatype.Type{rank0, rank1})
	if err != nil {
		t.Fatal(err)
	}
	apart, err := datatype.Struct([]int64{2, 0, 1}, []int64{0, -7, 40}, []*datatype.Type{pair, datatype.Double, datatype.Int16})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		dt     *datatype.Type
		sorted bool
	}{
		{"monotone hindexed", hindexed(t, []int64{2, 1, 3}, []int64{0, 40, 64}, datatype.Double), true},
		{"empty blocks at wild displacements", hindexed(t, []int64{0, 2, 0, 1, 0}, []int64{1 << 40, 0, -99, 40, 3}, datatype.Double), true},
		{"abutting blocks", hindexed(t, []int64{1, 1, 1}, []int64{0, 8, 16}, datatype.Double), true},
		{"holey children, ranges disjoint", hindexed(t, []int64{1, 2}, []int64{0, 16}, pair), true},
		{"struct of separate members", apart, true},
		{"unsorted hindexed", hindexed(t, []int64{2, 1, 3}, []int64{64, 0, 24}, datatype.Double), false},
		{"holey children, ranges interleaved", hindexed(t, []int64{1, 1}, []int64{0, 4}, pair), false},
		{"overlapping blocks", hindexed(t, []int64{2, 2}, []int64{0, 8}, datatype.Double), false},
		{"struct of interleaved fileviews", merge, false},
	}
	r := rand.New(rand.NewSource(3))
	for _, c := range cases {
		if got := info(c.dt).ends != nil; got != c.sorted {
			t.Errorf("%s: sorted = %v, want %v", c.name, got, c.sorted)
		}
		if err := checkNavigation(c.dt, r, 0, 0); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// monotoneHindexed builds n blocks of 8..64 bytes with gaps between them.
func monotoneHindexed(t testing.TB, n int) *datatype.Type {
	r := rand.New(rand.NewSource(int64(n)))
	bl := make([]int64, n)
	displs := make([]int64, n)
	var pos int64
	for i := range bl {
		bl[i] = 8 * (1 + r.Int63n(8))
		displs[i] = pos
		pos += bl[i] + 8*r.Int63n(4)
	}
	return hindexed(t, bl, displs, datatype.Byte)
}

// TestBufToDataSublinear pins the complexity: 256 times the blocks may
// cost a few more search steps and cache misses, not 256 times the time.
func TestBufToDataSublinear(t *testing.T) {
	const calls = 20000
	perCall := func(dt *datatype.Type) time.Duration {
		r := rand.New(rand.NewSource(5))
		offs := make([]int64, 1024)
		for i := range offs {
			offs[i] = r.Int63n(dt.Extent())
		}
		BufToData(dt, offs[0]) // build the node index outside the timing
		var rounds []time.Duration
		for round := 0; round < 5; round++ {
			t0 := time.Now()
			for i := 0; i < calls; i++ {
				BufToData(dt, offs[i%len(offs)])
			}
			rounds = append(rounds, time.Since(t0))
		}
		sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
		return rounds[2] / calls
	}
	small := perCall(monotoneHindexed(t, 1<<8))
	large := perCall(monotoneHindexed(t, 1<<16))
	t.Logf("BufToData: %v/call at 2^8 blocks, %v/call at 2^16", small, large)
	if large >= 8*max(small, time.Nanosecond) {
		t.Errorf("BufToData on 2^16 blocks costs %v/call, %v on 2^8: not sub-linear", large, small)
	}
}

// ascending reports, from the oracle's runs alone, whether three tiles of
// the type lay their data out in ascending order without overlap.
func (o navOracle) ascending() bool {
	end := int64(-1 << 62)
	for k := int64(0); k < 3; k++ {
		for _, r := range o.runs {
			if r[1] == 0 {
				continue
			}
			if k*o.ext+r[0] < end {
				return false
			}
			end = k*o.ext + r[0] + r[1]
		}
	}
	return true
}

// TestMonotone holds the structural test to the type map: it may never
// call a type monotone whose runs do not ascend, and it must recognise
// the shapes fileviews are made of — every generated legal filetype
// among them — or they would lose the navigated path for nothing.
func TestMonotone(t *testing.T) {
	pair := vec(t, 2, 1, 3, datatype.Int32) // runs at 0 and 12, extent 16
	shrunk, err := datatype.Resized(pair, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	lapped, err := datatype.Contiguous(2, shrunk)
	if err != nil {
		t.Fatal(err)
	}
	back, err := datatype.Hvector(3, 1, -8, datatype.Int32)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := datatype.Hvector(3, 2, 6, datatype.Int32) // blocks of 8 bytes, 6 apart
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		dt   *datatype.Type
		want bool
	}{
		{"vector", vec(t, 16, 8, 1024, datatype.Byte), true},
		{"monotone hindexed", monotoneHindexed(t, 64), true},
		{"hindexed of holey children", hindexed(t, []int64{1, 2}, []int64{0, 16}, pair), true},
		{"unsorted hindexed", hindexed(t, []int64{2, 1, 3}, []int64{64, 0, 24}, datatype.Double), false},
		{"interleaved children", hindexed(t, []int64{1, 1}, []int64{0, 4}, pair), false},
		{"tiles overlap", shrunk, false},
		{"contiguous of overlapping tiles", lapped, false},
		{"negative stride", back, false},
		{"stride inside the block", tight, false},
	}
	for _, c := range cases {
		if got := Monotone(c.dt); got != c.want {
			t.Errorf("%s: Monotone = %v, want %v", c.name, got, c.want)
		}
		if Monotone(c.dt) && !newNavOracle(c.dt).ascending() {
			t.Errorf("%s: called monotone, runs do not ascend", c.name)
		}
	}
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 500; i++ {
		dt := datatype.RandomFiletype(r, 2+i%3)
		if !Monotone(dt) {
			t.Errorf("legal filetype %v not recognised as monotone", dt)
		}
		if !newNavOracle(dt).ascending() {
			t.Fatalf("generator produced a non-ascending filetype %v", dt)
		}
	}
}
