package fotf

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/datatype"
	"repro/internal/datatype/datatypetest"
	"repro/internal/flatten"
)

// The differential layer: a compiled Program must be byte-identical to
// the recursive walk on every entry point — full packs, skip/limit
// clamps, windowed CopyRange with and without a resuming cursor, biased
// (virtual-file-buffer) addressing, and run enumeration.  A Cursor reset
// without a program, the walk callers fall back to, is held to the same
// windows.  Sentinel bytes around and inside the buffers catch stray
// writes, so the tests also pin that programs never touch a byte the
// walk would not.

// walkSpan returns one past the highest buffer offset the walk touches
// for data [0, d1) of the tiled type.
func walkSpan(dt *datatype.Type, d1 int64) int64 {
	var hi int64
	Runs(dt, 0, d1, func(bufOff, _, runLen, stride, n int64) {
		if end := bufOff + (n-1)*stride + runLen; end > hi {
			hi = end
		}
	})
	return hi
}

// coverage expands a run enumeration into a per-data-byte buffer-offset
// map over [d0, d1), failing on gaps, overlaps, or out-of-range data
// offsets — the strongest equivalence oracle for Runs-shaped output.
func coverage(d0, d1 int64, enum func(EmitFunc)) ([]int64, error) {
	m := make([]int64, d1-d0)
	for i := range m {
		m[i] = -1
	}
	var bad error
	enum(func(bufOff, dataOff, runLen, stride, n int64) {
		if bad != nil {
			return
		}
		if runLen <= 0 || n <= 0 {
			bad = fmt.Errorf("empty emission: runLen=%d n=%d", runLen, n)
			return
		}
		for i := int64(0); i < n; i++ {
			for j := int64(0); j < runLen; j++ {
				d := dataOff + i*runLen + j
				if d < d0 || d >= d1 {
					bad = fmt.Errorf("data offset %d outside [%d,%d)", d, d0, d1)
					return
				}
				if m[d-d0] != -1 {
					bad = fmt.Errorf("data offset %d emitted twice", d)
					return
				}
				m[d-d0] = bufOff + i*stride + j
			}
		}
	})
	if bad != nil {
		return nil, bad
	}
	for i, off := range m {
		if off == -1 {
			return nil, fmt.Errorf("data offset %d never emitted", d0+int64(i))
		}
	}
	return m, nil
}

// emissions records a run enumeration call by call.
func emissions(enum func(EmitFunc)) [][5]int64 {
	var out [][5]int64
	enum(func(bufOff, dataOff, runLen, stride, n int64) {
		out = append(out, [5]int64{bufOff, dataOff, runLen, stride, n})
	})
	return out
}

// progPack packs through the compiled program with Pack's semantics:
// limit = min(len(dst), data available when tiling over len(src)).
func progPack(p *Program, dst, src []byte, skip int64) int64 {
	limit := avail(p.t, int64(len(src)), skip)
	if limit > int64(len(dst)) {
		limit = int64(len(dst))
	}
	if limit <= 0 {
		return 0
	}
	p.CopyRange(dst[:limit], src, skip, skip+limit, 0, true)
	return limit
}

// checkProgramVsWalk runs the full differential battery on one type
// with one randomness stream.  It returns nil when program and walk
// agree byte-for-byte everywhere.
func checkProgramVsWalk(dt *datatype.Type, r *rand.Rand) error {
	p := Compile(dt)
	if p == nil {
		// Declining is only legal for the documented guards.
		if dt.Size() <= 0 || dt.Blocks() > maxProgramBlocks {
			return nil
		}
		// A coalescing overflow is possible in principle but cannot
		// happen for the bounded trees this battery generates.
		return fmt.Errorf("Compile declined a compilable type (size %d, blocks %d)", dt.Size(), dt.Blocks())
	}
	if p.size != dt.Size() || p.ext != dt.Extent() {
		return fmt.Errorf("program size/ext %d/%d != type %d/%d", p.size, p.ext, dt.Size(), dt.Extent())
	}
	if g, b := int64(p.Groups()), dt.Blocks(); g > b {
		return fmt.Errorf("compile expanded the type: %d groups from %d blocks", g, b)
	}

	count := int64(1 + r.Intn(3))
	total := count * p.size
	span := walkSpan(dt, total)
	src := make([]byte, span)
	r.Read(src)

	// Run enumeration must cover exactly the same (data, buffer) byte
	// pairs as the walk, for an arbitrary window.
	d0 := r.Int63n(total)
	d1 := d0 + 1 + r.Int63n(total-d0)
	mw, err := coverage(d0, d1, func(emit EmitFunc) { Runs(dt, d0, d1, emit) })
	if err != nil {
		return fmt.Errorf("walk enumeration [%d,%d): %v", d0, d1, err)
	}
	mp, err := coverage(d0, d1, func(emit EmitFunc) { p.Runs(d0, d1, emit) })
	if err != nil {
		return fmt.Errorf("program enumeration [%d,%d): %v", d0, d1, err)
	}
	for i := range mw {
		if mw[i] != mp[i] {
			return fmt.Errorf("enumeration [%d,%d): data byte %d maps to buf %d (walk) vs %d (program)",
				d0, d1, d0+int64(i), mw[i], mp[i])
		}
	}
	// A cursor without a program emits what the walk emits, call for call.
	var walk Cursor
	walk.Reset(dt, nil)
	if ew, ec := emissions(func(emit EmitFunc) { Runs(dt, d0, d1, emit) }), emissions(func(emit EmitFunc) { walk.Runs(d0, d1, emit) }); !slices.Equal(ew, ec) {
		return fmt.Errorf("enumeration [%d,%d): the program-less cursor emits %d groups, the walk %d, or they differ", d0, d1, len(ec), len(ew))
	}

	// PackCount parity under random skip and a clamping dst.
	skip := r.Int63n(total)
	dlen := r.Int63n(total + 4)
	dstW := bytes.Repeat([]byte{0xAA}, int(total)+8)
	dstP := bytes.Repeat([]byte{0xAA}, int(total)+8)
	if dlen > int64(len(dstW)) {
		dlen = int64(len(dstW))
	}
	nW := PackCount(dstW[:dlen], src, count, dt, skip)
	nP := p.PackCount(dstP[:dlen], src, count, skip)
	if nW != nP || !bytes.Equal(dstW, dstP) {
		return fmt.Errorf("PackCount(skip=%d, dlen=%d): n %d vs %d, bytes equal=%v", skip, dlen, nW, nP, bytes.Equal(dstW, dstP))
	}

	// Pack parity (avail-based limit over a truncated typed buffer).
	srcCut := src[:r.Int63n(span+1)]
	for i := range dstW {
		dstW[i], dstP[i] = 0xBB, 0xBB
	}
	nW = Pack(dstW[:dlen], srcCut, dt, skip)
	nP = progPack(p, dstP[:dlen], srcCut, skip)
	if nW != nP || !bytes.Equal(dstW, dstP) {
		return fmt.Errorf("Pack(skip=%d, dlen=%d, srclen=%d): n %d vs %d", skip, dlen, len(srcCut), nW, nP)
	}

	// UnpackCount parity with sentinel typed buffers: untouched holes
	// must stay untouched on both sides.
	cd := make([]byte, total+8)
	r.Read(cd)
	bW := bytes.Repeat([]byte{0xCC}, int(span)+8)
	bP := bytes.Repeat([]byte{0xCC}, int(span)+8)
	nW = unpackCount(bW, cd[:dlen], count, dt, skip)
	nP = p.UnpackCount(bP, cd[:dlen], count, skip)
	if nW != nP || !bytes.Equal(bW, bP) {
		return fmt.Errorf("UnpackCount(skip=%d, srclen=%d): n %d vs %d, bytes equal=%v", skip, dlen, nW, nP, bytes.Equal(bW, bP))
	}

	// Windowed pack through a resuming cursor, with a random negative
	// bias (the virtual-file-buffer shift, exercised with padding).
	pad := r.Int63n(8)
	bias := -pad
	bsrc := make([]byte, span+pad)
	r.Read(bsrc)
	cW := bytes.Repeat([]byte{0xDD}, int(total))
	cP := bytes.Repeat([]byte{0xDD}, int(total))
	cN := bytes.Repeat([]byte{0xDD}, int(total))
	var cur Cursor
	cur.Reset(dt, p)
	for d := int64(0); d < total; {
		w := 1 + r.Int63n(1+total/4)
		if d+w > total {
			w = total - d
		}
		CopyRange(cW[d:d+w], bsrc, dt, d, d+w, bias, true)
		cur.CopyRange(cP[d:d+w], bsrc, d, d+w, bias, true)
		walk.CopyRange(cN[d:d+w], bsrc, d, d+w, bias, true)
		d += w
	}
	if !bytes.Equal(cW, cP) || !bytes.Equal(cW, cN) {
		return fmt.Errorf("cursor-windowed pack differs (pad=%d): program %v, no program %v", pad, bytes.Equal(cW, cP), bytes.Equal(cW, cN))
	}

	// Out-of-sequence windows: the cursor hint must not poison a window
	// that does not continue the previous one.
	for trial := 0; trial < 4; trial++ {
		a := r.Int63n(total)
		b := a + 1 + r.Int63n(total-a)
		for i := int64(0); i < b-a; i++ {
			cW[a+i], cP[a+i], cN[a+i] = 0xEE, 0xEE, 0xEE
		}
		CopyRange(cW[a:b], bsrc, dt, a, b, bias, true)
		cur.CopyRange(cP[a:b], bsrc, a, b, bias, true)
		walk.CopyRange(cN[a:b], bsrc, a, b, bias, true)
		if !bytes.Equal(cW[a:b], cP[a:b]) || !bytes.Equal(cW[a:b], cN[a:b]) {
			return fmt.Errorf("out-of-sequence window [%d,%d) differs", a, b)
		}
	}

	// Windowed unpack with whole-buffer sentinels: ascending windows
	// writing into the typed buffer must leave holes untouched.
	bN := bytes.Repeat([]byte{0x11}, len(bW))
	for i := range bW {
		bW[i], bP[i] = 0x11, 0x11
	}
	cur.Reset(dt, p)
	walk.Reset(dt, nil)
	for d := int64(0); d < total; {
		w := 1 + r.Int63n(1+total/3)
		if d+w > total {
			w = total - d
		}
		CopyRange(cd[d:d+w], bW[:span], dt, d, d+w, 0, false)
		cur.CopyRange(cd[d:d+w], bP[:span], d, d+w, 0, false)
		walk.CopyRange(cd[d:d+w], bN[:span], d, d+w, 0, false)
		d += w
	}
	if !bytes.Equal(bW, bP) || !bytes.Equal(bW, bN) {
		return fmt.Errorf("cursor-windowed unpack differs: program %v, no program %v", bytes.Equal(bW, bP), bytes.Equal(bW, bN))
	}
	return nil
}

func TestQuickProgramVsWalk(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dt := datatypetest.RandomFiletype(r, 3)
		if err := checkProgramVsWalk(dt, r); err != nil {
			t.Logf("seed %d, type %v: %v", seed, dt, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestProgramCoalescing pins the compile-time merges: shapes whose tree
// structure hides contiguity or a uniform stride must collapse to the
// minimal group form.
func TestProgramCoalescing(t *testing.T) {
	resized := func(dt *datatype.Type, lb, ext int64) *datatype.Type {
		t.Helper()
		out, err := datatype.Resized(dt, lb, ext)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	contig := func(count int64, child *datatype.Type) *datatype.Type {
		t.Helper()
		out, err := datatype.Contiguous(count, child)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	strct := func(blocklens, displs []int64, children []*datatype.Type) *datatype.Type {
		t.Helper()
		out, err := datatype.Struct(blocklens, displs, children)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Doubles at a uniform 16-byte pitch, written as an explicit
	// displacement list: the tree carries no regularity at all.
	pitched := make([]int64, 256)
	ones := make([]int64, len(pitched))
	for i := range pitched {
		pitched[i], ones[i] = int64(i)*16, 1
	}
	regularIndexed, err := datatype.Hindexed(ones, pitched, datatype.Double)
	if err != nil {
		t.Fatal(err)
	}
	// The same pitch as an hvector of two-run blocks whose byte stride
	// continues it seamlessly across block boundaries.
	seamless, err := datatype.Hvector(128, 1, 32, vec(t, 2, 1, 2, datatype.Double))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		dt     *datatype.Type
		groups int
	}{
		// A strided vector is already one group for the walk.
		{"vector", vec(t, 8, 1, 2, datatype.Double), 1},
		// A contiguous sequence of padded elements: the walk recurses
		// per block (the child is not dense), the program merges the 64
		// equal, evenly spaced runs into one arithmetic progression.
		{"padded-contig", contig(64, resized(datatype.Double, 0, 16)), 1},
		// Regularity the tree does not state is rediscovered at compile
		// time: both fold to one strided group.
		{"regular-indexed", regularIndexed, 1},
		{"seamless-hvector", seamless, 1},
		// Struct members that abut in the buffer merge into one run.
		{"abutting-struct", strct([]int64{1, 1}, []int64{0, 8}, []*datatype.Type{datatype.Double, datatype.Double}), 1},
		// Struct members at a uniform pitch merge into one progression.
		{"pitched-struct", strct([]int64{1, 1, 1}, []int64{0, 16, 32},
			[]*datatype.Type{datatype.Double, datatype.Double, datatype.Double}), 1},
		// Two vectors back to back with the same geometry, phase-aligned.
		{"aligned-vectors", strct([]int64{1, 1}, []int64{0, 64},
			[]*datatype.Type{vec(t, 4, 8, 16, datatype.Byte), vec(t, 4, 8, 16, datatype.Byte)}), 1},
		// Different widths cannot merge.
		{"mixed-struct", strct([]int64{1, 1}, []int64{0, 16},
			[]*datatype.Type{datatype.Int32, datatype.Double}), 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := Compile(c.dt)
			if p == nil {
				t.Fatalf("Compile declined %v", c.dt)
			}
			if p.Groups() != c.groups {
				t.Errorf("Groups() = %d, want %d", p.Groups(), c.groups)
			}
			if err := checkProgramVsWalk(c.dt, rand.New(rand.NewSource(7))); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestProgramDeclines pins the compile guards: nil and dataless types
// decline, and a decline is represented as a nil *Program whose
// Groups() is safely callable.
func TestProgramDeclines(t *testing.T) {
	if Compile(nil) != nil {
		t.Error("Compile(nil) must return nil")
	}
	empty := vec(t, 3, 0, 2, datatype.Double) // zero-length blocks: size 0
	if empty.Size() != 0 {
		t.Fatalf("setup: size %d, want 0", empty.Size())
	}
	if Compile(empty) != nil {
		t.Error("Compile of a dataless type must return nil")
	}
	var p *Program
	if p.Groups() != 0 {
		t.Error("nil Program Groups() must be 0")
	}
}

// overlapsWhenTiled reports, from the type map alone, whether n tiled
// instances of dt place two data bytes at one buffer offset.
func overlapsWhenTiled(dt *datatype.Type, n int64) bool {
	seen := make(map[int64]bool)
	overlap := false
	for k := int64(0); k < n; k++ {
		dt.Walk(func(off, length int64) {
			for o := k*dt.Extent() + off; o < k*dt.Extent()+off+length; o++ {
				overlap = overlap || seen[o]
				seen[o] = true
			}
		})
	}
	return overlap
}

// TestProgramDisjoint holds the compile-time disjointness bit to the
// type map: it is never true where two data bytes meet, and it holds for
// the shapes a read destination is made of — every legal filetype, and
// the shuffled-length blocks of an irregular memtype — so that the bit,
// not Monotone, decides whether an unpack may run out of order.
func TestProgramDisjoint(t *testing.T) {
	pair := vec(t, 2, 1, 3, datatype.Int32) // runs at 0 and 12, extent 16
	shrunk, err := datatype.Resized(pair, 0, 8)
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
	shuffled := hindexed(t, []int64{48, 8, 200, 16}, []int64{0, 56, 72, 280}, datatype.Byte)
	cases := []struct {
		name      string
		dt        *datatype.Type
		one, many bool // Disjoint(1), Disjoint(3)
	}{
		{"vector", vec(t, 16, 8, 1024, datatype.Byte), true, true},
		{"shuffled run lengths", shuffled, true, true},
		{"interleaved children", hindexed(t, []int64{1, 1}, []int64{0, 4}, pair), false, false},
		{"overlapping blocks", hindexed(t, []int64{4, 4}, []int64{0, 2}, datatype.Int32), false, false},
		{"tiles overlap", shrunk, true, false},
		{"negative stride", back, true, true},
		{"stride inside the block", tight, false, false},
	}
	for _, c := range cases {
		p := Compile(c.dt)
		if got := [2]bool{p.Disjoint(1), p.Disjoint(3)}; got != [2]bool{c.one, c.many} {
			t.Errorf("%s: Disjoint(1), Disjoint(3) = %v, want %v, %v", c.name, got, c.one, c.many)
		}
	}
	r := rand.New(rand.NewSource(27))
	for i := 0; i < 400; i++ {
		dt := datatypetest.RandomFiletype(r, 2+i%3)
		if p := Compile(dt); p != nil && !p.Disjoint(3) {
			t.Errorf("legal filetype %v: not shown disjoint", dt)
		}
		// Blocks and strides drawn to collide.
		n := 1 + r.Intn(4)
		bl, displs := make([]int64, n), make([]int64, n)
		for j := range bl {
			bl[j], displs[j] = 1+r.Int63n(4), r.Int63n(12)
		}
		raw := hindexed(t, bl, displs, datatype.Int16)
		if r.Intn(2) == 0 {
			if raw, err = datatype.Hvector(1+r.Int63n(3), 1+r.Int63n(3), r.Int63n(16)-8, raw); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range []int64{1, 3} {
			if p := Compile(raw); p != nil && p.Disjoint(k) && overlapsWhenTiled(raw, k) {
				t.Errorf("%v: Disjoint(%d) is true, but its data bytes meet", raw, k)
			}
		}
	}
}

// TestProgramHostileShapes pins that compilation of adversarial trees
// is bounded: a huge-extent type compiles to its true group count
// without extent-proportional work, and a tree whose run structure
// cannot be coalesced below the group cap declines instead of
// allocating without bound.
func TestProgramHostileShapes(t *testing.T) {
	huge, err := datatype.Resized(datatype.Double, 0, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	p := Compile(huge)
	if p == nil || p.Groups() != 1 {
		t.Fatalf("huge-extent type: program %v, groups %d", p, p.Groups())
	}
	dst := make([]byte, 8)
	src := make([]byte, 8)
	if n := p.PackCount(dst, src, 1, 0); n != 8 {
		t.Errorf("huge-extent pack moved %d bytes, want 8", n)
	}

	// A holey fractal: each level doubles the run count and no two runs
	// are evenly spaced across levels, so coalescing cannot compress it
	// below the cap.  Compile must decline, not grow without bound.
	frac := datatype.Byte
	for i := 0; i < 18; i++ {
		frac = vec(t, 2, 1, 3, frac)
	}
	if frac.Blocks() <= maxProgramGroups {
		t.Fatalf("setup: fractal has only %d blocks", frac.Blocks())
	}
	if got := Compile(frac); got != nil {
		t.Errorf("fractal beyond the group cap compiled to %d groups; want decline", got.Groups())
	}
}

// TestProgramCursorBoundaries drives windows that end exactly on group,
// instance, and element boundaries through one cursor — the resume
// hints' hard cases.
func TestProgramCursorBoundaries(t *testing.T) {
	dt := vec(t, 3, 2, 5, datatype.Int32) // runs of 8B at 0,20,40; size 24
	p := Compile(dt)
	if p == nil {
		t.Fatal("Compile declined")
	}
	total := 4 * p.size // four instances
	span := walkSpan(dt, total)
	src := make([]byte, span)
	rand.New(rand.NewSource(3)).Read(src)
	for _, widths := range [][]int64{
		{8, 8, 8},          // group boundaries
		{24, 24, 24, 24},   // instance boundaries
		{4, 4, 4, 4},       // element boundaries
		{1, 7, 16, 24, 48}, // mixed, instance-crossing
		{3, 5, 2, 6, 13, 19, 1, 47},
	} {
		want := make([]byte, total)
		got := make([]byte, total)
		var cur Cursor
		cur.Reset(dt, p)
		d := int64(0)
		for i := 0; d < total; i++ {
			w := widths[i%len(widths)]
			if d+w > total {
				w = total - d
			}
			CopyRange(want[d:d+w], src, dt, d, d+w, 0, true)
			cur.CopyRange(got[d:d+w], src, d, d+w, 0, true)
			d += w
		}
		if !bytes.Equal(want, got) {
			t.Errorf("widths %v: cursor-windowed pack differs", widths)
		}
	}
}

// TestRunCountUpTo holds the bounded count to the enumeration it
// abbreviates: over random trees and ranges that start and end anywhere
// in up to four tiled instances, the result is what Runs emits whenever
// that is below the limit, and at least the limit otherwise — so a rule
// "runs >= limit" reads the same from either.  A Cursor's RunCount is
// the count with no limit, and without a program what the walk emits.
// And it is arithmetic: a range of 2^30 whole instances is counted by a
// multiplication, not by visiting them (the test would not return
// otherwise).
func TestRunCountUpTo(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		dt := datatypetest.RandomFiletype(r, 2+i%3)
		p := Compile(dt)
		if p == nil {
			continue
		}
		d0 := r.Int63n(2 * p.size)
		d1 := d0 + 1 + r.Int63n(2*p.size)
		var exact int64
		p.Runs(d0, d1, func(_, _, _, _, n int64) { exact += n })
		var c Cursor
		c.Reset(dt, p)
		if got := c.RunCount(d0, d1); got != exact {
			t.Fatalf("%v [%d,%d): RunCount %d, Runs emits %d", dt, d0, d1, got, exact)
		}
		// Without a program the cursor counts what the walk emits.
		var walked int64
		Runs(dt, d0, d1, func(_, _, _, _, n int64) { walked += n })
		if c.Reset(dt, nil); c.RunCount(d0, d1) != walked {
			t.Fatalf("%v [%d,%d): the tree cursor counts %d runs, the walk emits %d", dt, d0, d1, c.RunCount(d0, d1), walked)
		}
		for _, limit := range []int64{0, 1, exact / 2, exact - 1, exact, exact + 1, math.MaxInt64} {
			got := p.RunCountUpTo(d0, d1, limit)
			if min(got, limit) != min(exact, limit) || got > exact {
				t.Fatalf("%v [%d,%d) limit %d: counted %d, Runs emits %d", dt, d0, d1, limit, got, exact)
			}
		}
		if got := p.RunCountUpTo(d1, d0, 5); got != 0 {
			t.Fatalf("empty range counted %d runs", got)
		}
	}

	vec, err := datatype.Hvector(1000, 8, 24, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	p := Compile(vec)
	const instances = 1 << 30
	if got := p.RunCountUpTo(4, 4+instances*p.size, math.MaxInt64); got != instances*1000+1 {
		t.Fatalf("2^30 instances from mid-run to mid-run: %d runs, want %d", got, int64(instances*1000+1))
	}
	// The bound stops the count where it is reached, group by group.
	irr := Compile(irregularHindexed(t, 1<<15, 3))
	if got := irr.RunCountUpTo(1, irr.size, 129); got != 129 {
		t.Fatalf("limit 129 over single-run groups: counted %d", got)
	}
}

// flatProgram compiles t's ol-list instead of t: a Hindexed of Byte over
// flatten.Flatten(t)'s tuples, resized to t's bounds — the layout of t
// with none of its tree.
func flatProgram(tb testing.TB, t *datatype.Type) *Program {
	tb.Helper()
	l := flatten.Flatten(t)
	lens, displs := make([]int64, len(l)), make([]int64, len(l))
	for i, s := range l {
		lens[i], displs[i] = s.Len, s.Off
	}
	h, err := datatype.Hindexed(lens, displs, datatype.Byte)
	if err == nil {
		h, err = datatype.Resized(h, datatypetest.LB(t), t.Extent())
	}
	if err != nil {
		tb.Fatal(err)
	}
	return Compile(h)
}

// sameGroups reports how Compile(t) and the compile of t's ol-list
// differ, or "" when their groups are equal.
func sameGroups(tb testing.TB, t *datatype.Type) string {
	tb.Helper()
	p, q := Compile(t), flatProgram(tb, t)
	if p == nil || q == nil {
		if p != q {
			return fmt.Sprintf("one side declined: tree %v, flat %v", p == nil, q == nil)
		}
		return ""
	}
	if !slices.Equal(p.groups, q.groups) {
		return fmt.Sprintf("tree compiles to %v, its ol-list to %v", p.groups, q.groups)
	}
	return ""
}

// TestCompileIsAFunctionOfTheLayout: two trees with one ol-list compile
// to one program (Träff et al.'s self-consistency: equivalent
// constructions must not differ).  Compile(t)'s groups must equal those of
// t's ol-list compiled as a Hindexed of bytes, for random filetypes and
// for a table of constructions of one layout each.
func TestCompileIsAFunctionOfTheLayout(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	trees := 3000
	if testing.Short() {
		trees = 500
	}
	for i := 0; i < trees; i++ {
		dt := datatypetest.RandomFiletype(r, 4)
		if diff := sameGroups(t, dt); diff != "" {
			t.Fatalf("tree %d, %v: %s", i, dt, diff)
		}
	}

	must := func(dt *datatype.Type, err error) *datatype.Type {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return dt
	}
	fill := func(v int64, n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	at := func(step int64, n int) []int64 {
		d := make([]int64, n)
		for i := range d {
			d[i] = int64(i) * step
		}
		return d
	}
	hv := must(datatype.Hvector(5, 48, 72, datatype.Byte))
	for _, c := range []struct {
		name string
		dt   *datatype.Type
	}{
		{"vector", vec(t, 6, 2, 5, datatype.Int32)},
		{"hvector", must(datatype.Hvector(6, 2, 20, datatype.Int32))},
		{"regular-indexed", must(datatype.Hindexed(fill(2, 6), at(20, 6), datatype.Int32))},
		{"hindexed-of-doubles", must(datatype.Hindexed(fill(1, 6), at(20, 6), must(datatype.Contiguous(2, datatype.Int32))))},
		{"one-member-struct", must(datatype.Struct([]int64{1}, []int64{0}, []*datatype.Type{vec(t, 6, 2, 5, datatype.Int32)}))},
		{"resized", must(datatype.Resized(vec(t, 6, 2, 5, datatype.Int32), 0, 120))},
		// A group whose last run abuts the member after it: the two are
		// one run of the layout.
		{"abutting-last-run", must(datatype.Struct([]int64{1, 1}, []int64{0, 336}, []*datatype.Type{hv, datatype.Int32}))},
		// A run that abuts the first run of the group after it.
		{"abutting-first-run", must(datatype.Struct([]int64{1, 1}, []int64{0, 4}, []*datatype.Type{datatype.Int32, hv}))},
		// A single run equal in length to the group after it, but not at
		// its stride: the layout pairs the run with the group's first.
		{"run-then-group", must(datatype.Struct([]int64{1, 1}, []int64{0, 100}, []*datatype.Type{datatype.Int32, vec(t, 5, 1, 2, datatype.Int32)}))},
		// A group whose first run continues the progression before it at
		// that progression's stride, not its own.
		{"group-continues-into-group", must(datatype.Struct([]int64{1, 1}, []int64{0, 36}, []*datatype.Type{vec(t, 3, 1, 3, datatype.Int32), vec(t, 3, 1, 5, datatype.Int32)}))},
	} {
		t.Run(c.name, func(t *testing.T) {
			if diff := sameGroups(t, c.dt); diff != "" {
				t.Error(diff)
			}
		})
	}
}
