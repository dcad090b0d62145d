package flatten

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datatype"
	"repro/internal/datatype/datatypetest"
)

func vec(t *testing.T, count, blocklen, stride int64) *datatype.Type {
	t.Helper()
	dt, err := datatype.Vector(count, blocklen, stride, datatype.Double)
	if err != nil {
		t.Fatal(err)
	}
	return dt
}

func TestFlattenVector(t *testing.T) {
	l := Flatten(vec(t, 3, 2, 4))
	want := List{{0, 16}, {32, 16}, {64, 16}}
	if len(l) != len(want) {
		t.Fatalf("list = %v, want %v", l, want)
	}
	for i := range want {
		if l[i] != want[i] {
			t.Fatalf("list[%d] = %v, want %v", i, l[i], want[i])
		}
	}
	if l.Bytes() != 48 {
		t.Fatalf("bytes = %d, want 48", l.Bytes())
	}
	if l.Footprint() != 48 {
		t.Fatalf("footprint = %d, want 48", l.Footprint())
	}
}

func TestFlattenCoalesces(t *testing.T) {
	// stride == blocklen is contiguous: one tuple after coalescing.
	l := Flatten(vec(t, 8, 4, 4))
	if len(l) != 1 || l[0] != (Segment{0, 256}) {
		t.Fatalf("list = %v, want one 256-byte segment", l)
	}
}

func TestListBasedMemoryBlowup(t *testing.T) {
	// The paper's extreme example: for blocklens < 16 bytes the list
	// costs more memory than the data it describes.
	l := Flatten(vec(t, 1000, 1, 2)) // 8-byte blocks
	if l.Footprint() <= l.Bytes() {
		t.Fatalf("expected footprint %d > data %d for 8-byte blocks", l.Footprint(), l.Bytes())
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	dt := vec(t, 4, 1, 3)
	l := Flatten(dt)
	ext := dt.Extent()
	count := int64(3)
	src := make([]byte, count*ext)
	for i := range src {
		src[i] = byte(i)
	}
	packed := make([]byte, dt.Size()*count)
	if n := PackList(packed, src, l, ext, count, 0, int64(len(packed))); n != int64(len(packed)) {
		t.Fatalf("packed %d bytes, want %d", n, len(packed))
	}
	dst := make([]byte, len(src))
	if n := UnpackList(dst, packed, l, ext, count, 0, int64(len(packed))); n != int64(len(packed)) {
		t.Fatalf("unpacked %d bytes, want %d", n, len(packed))
	}
	// Only typed positions must match; holes stay zero.
	var checked int64
	for k := int64(0); k < count; k++ {
		for _, seg := range l {
			off := k*ext + seg.Off
			if !bytes.Equal(dst[off:off+seg.Len], src[off:off+seg.Len]) {
				t.Fatalf("data mismatch at instance %d seg %v", k, seg)
			}
			checked += seg.Len
		}
	}
	if checked != int64(len(packed)) {
		t.Fatalf("checked %d bytes, want %d", checked, len(packed))
	}
}

func TestPackWithSkipAndLimit(t *testing.T) {
	dt := vec(t, 4, 1, 2) // blocks at 0,16,32,48, 8 bytes each; size 32
	l := Flatten(dt)
	ext := dt.Extent()
	src := make([]byte, 2*ext)
	for i := range src {
		src[i] = byte(i)
	}
	// Reference: full pack then slice.
	full := make([]byte, 64)
	PackList(full, src, l, ext, 2, 0, 64)
	for skip := int64(0); skip <= 64; skip += 5 {
		for limit := int64(0); limit <= 64-skip; limit += 7 {
			got := make([]byte, limit)
			n := PackList(got, src, l, ext, 2, skip, limit)
			if n != limit {
				t.Fatalf("skip=%d limit=%d: copied %d", skip, limit, n)
			}
			if !bytes.Equal(got[:n], full[skip:skip+n]) {
				t.Fatalf("skip=%d limit=%d: wrong bytes", skip, limit)
			}
		}
	}
	// Skip beyond data.
	if n := PackList(make([]byte, 8), src, l, ext, 2, 100, 8); n != 0 {
		t.Fatalf("pack past end copied %d", n)
	}
}

// newView is the list-based view of ft at disp, as the list-based
// engine's SetView builds it.
func newView(disp int64, ft *datatype.Type) *View {
	segs := Flatten(ft)
	return &View{Disp: disp, Extent: ft.Extent(), Bytes: segs.Bytes(), Segs: segs}
}

// eachInData emits the absolute file segments backing the data-stream
// range [d0, d1), in order, as (fileOff, dataOff, n) triples.  Positioning
// within the first instance is by linear traversal.
func eachInData(v *View, d0, d1 int64, emit func(fileOff, dataOff, n int64)) {
	if d1 <= d0 || v.Bytes == 0 {
		return
	}
	inst := d0 / v.Bytes
	rem := d0 % v.Bytes
	idx, cum := v.Segs.locate(rem)
	within := rem - cum
	d := d0
	for d < d1 {
		base := v.Disp + inst*v.Extent
		for ; idx < len(v.Segs) && d < d1; idx++ {
			seg := v.Segs[idx]
			n := seg.Len - within
			off := base + seg.Off + within
			within = 0
			if n > d1-d {
				n = d1 - d
			}
			emit(off, d, n)
			d += n
		}
		idx = 0
		inst++
	}
}

func TestViewDataToFile(t *testing.T) {
	dt := vec(t, 2, 1, 2) // segs {0,8},{16,8}; bytes 16; extent 24
	v := newView(100, dt)
	cases := []struct{ d, want int64 }{
		{0, 100}, {7, 107}, {8, 116}, {15, 123},
		{16, 124}, {31, 147}, {32, 148},
	}
	for _, c := range cases {
		if got := v.DataToFile(c.d); got != c.want {
			t.Errorf("DataToFile(%d) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestViewEachInRange(t *testing.T) {
	dt := vec(t, 2, 1, 2)
	v := newView(10, dt)
	// File layout: data at [10,18),[26,34) per inst0; [34,42),[50,58) inst1...
	var got []Segment
	var dataOffs []int64
	v.EachInRange(12, 52, func(fileOff, dataOff, n int64) {
		got = append(got, Segment{fileOff, n})
		dataOffs = append(dataOffs, dataOff)
	})
	want := []Segment{{12, 6}, {26, 8}, {34, 8}, {50, 2}}
	wantData := []int64{2, 8, 16, 24}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] || dataOffs[i] != wantData[i] {
			t.Fatalf("range seg %d = %v@%d, want %v@%d", i, got[i], dataOffs[i], want[i], wantData[i])
		}
	}
}

func TestListCovers(t *testing.T) {
	// A vector's data at [0,8),[16,24),[24,32),[40,48): middle two coalesced.
	l := List{{0, 8}, {16, 16}, {40, 8}}
	if l.Covers(0, 48) {
		t.Fatal("gappy list must not cover [0,48)")
	}
	if !l.Covers(16, 32) {
		t.Fatal("coalesced middle must cover [16,32)")
	}
}

func TestMerge(t *testing.T) {
	a := List{{0, 8}, {16, 8}}
	b := List{{8, 8}, {24, 8}}
	m := Merge(a, b)
	if len(m) != 1 || m[0] != (Segment{0, 32}) {
		t.Fatalf("merge = %v, want single [0,32)", m)
	}
	if !m.Covers(0, 32) {
		t.Fatal("merged list must cover [0,32)")
	}
	if m.Covers(0, 33) {
		t.Fatal("must not cover beyond end")
	}
	// Overlapping segments.
	m2 := Merge(List{{0, 10}}, List{{5, 10}}, List{{20, 5}})
	if len(m2) != 2 || m2[0] != (Segment{0, 15}) || m2[1] != (Segment{20, 5}) {
		t.Fatalf("merge = %v", m2)
	}
	if Merge() != nil {
		t.Fatal("empty merge must be nil")
	}
}

func TestCoversEmptyRange(t *testing.T) {
	var l List
	if !l.Covers(5, 5) {
		t.Fatal("empty range is always covered")
	}
	if l.Covers(0, 1) {
		t.Fatal("empty list covers nothing")
	}
}

// Property: PackList/UnpackList round-trip on random types, skips and
// limits.
func TestQuickPackUnpackRandomTypes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dt := datatypetest.RandomFiletype(r, 3)
		l := Flatten(dt)
		ext := dt.Extent()
		count := int64(1 + r.Intn(3))
		buf := make([]byte, count*ext+dt.TrueUB()) // room for data
		for i := range buf {
			buf[i] = byte(r.Intn(256))
		}
		total := dt.Size() * count
		full := make([]byte, total)
		if n := PackList(full, buf, l, ext, count, 0, total); n != total {
			return false
		}
		skip := r.Int63n(total + 1)
		limit := r.Int63n(total - skip + 1)
		part := make([]byte, limit)
		if n := PackList(part, buf, l, ext, count, skip, limit); n != limit {
			return false
		}
		if !bytes.Equal(part, full[skip:skip+limit]) {
			return false
		}
		// Unpack into a fresh buffer and compare typed bytes.
		out := make([]byte, len(buf))
		if n := UnpackList(out, full, l, ext, count, 0, total); n != total {
			return false
		}
		ok := true
		for k := int64(0); k < count; k++ {
			for _, seg := range l {
				off := k*ext + seg.Off
				if !bytes.Equal(out[off:off+seg.Len], buf[off:off+seg.Len]) {
					ok = false
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEachInRangeMatchesEachInData(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dt := datatypetest.RandomFiletype(r, 3)
		v := newView(r.Int63n(64), dt)
		count := int64(1 + r.Intn(3))
		// Collect all segments via EachInData over everything.
		type trip struct{ f, d, n int64 }
		var a []trip
		eachInData(v, 0, v.Bytes*count, func(fileOff, dataOff, n int64) {
			// Coalesce for comparison.
			if k := len(a); k > 0 && a[k-1].f+a[k-1].n == fileOff && a[k-1].d+a[k-1].n == dataOff {
				a[k-1].n += n
				return
			}
			a = append(a, trip{fileOff, dataOff, n})
		})
		var b []trip
		v.EachInRange(v.Disp, v.Disp+count*v.Extent, func(fileOff, dataOff, n int64) {
			if k := len(b); k > 0 && b[k-1].f+b[k-1].n == fileOff && b[k-1].d+b[k-1].n == dataOff {
				b[k-1].n += n
				return
			}
			b = append(b, trip{fileOff, dataOff, n})
		})
		if len(a) != len(b) {
			t.Logf("type %s: %d vs %d segments", dt, len(a), len(b))
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				t.Logf("type %s: seg %d %v vs %v", dt, i, a[i], b[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
