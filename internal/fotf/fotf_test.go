package fotf

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datatype"
	"repro/internal/datatype/datatypetest"
	"repro/internal/flatten"
)

func vec(t *testing.T, count, blocklen, stride int64, child *datatype.Type) *datatype.Type {
	t.Helper()
	dt, err := datatype.Vector(count, blocklen, stride, child)
	if err != nil {
		t.Fatal(err)
	}
	return dt
}

// refStartPos computes StartPos from the flattened list (oracle).
func refStartPos(dt *datatype.Type, d int64) int64 {
	l := flatten.Flatten(dt)
	size := l.Bytes()
	k := d / size
	rem := d - k*size
	base := k * dt.Extent()
	for _, seg := range l {
		if rem < seg.Len {
			return base + seg.Off + rem
		}
		rem -= seg.Len
	}
	// d on an instance boundary: start of next instance's first segment.
	return base + dt.Extent() + l[0].Off
}

// refEndPos computes EndPos from the flattened list (oracle).
func refEndPos(dt *datatype.Type, d int64) int64 {
	return refStartPos(dt, d-1) + 1
}

// refBufToData counts data bytes below buffer offset off (oracle).
func refBufToData(dt *datatype.Type, off int64) int64 {
	l := flatten.Flatten(dt)
	var d int64
	for k := int64(0); ; k++ {
		base := k * dt.Extent()
		if base+dt.TrueLB() >= off {
			return d
		}
		for _, seg := range l {
			a, b := base+seg.Off, base+seg.Off+seg.Len
			if b <= off {
				d += seg.Len
			} else if a < off {
				d += off - a
			}
		}
	}
}

func TestStartEndPosVector(t *testing.T) {
	dt := vec(t, 3, 2, 4, datatype.Double) // runs 16B at 0,32,64; ext 80
	cases := []struct{ d, start int64 }{
		{0, 0}, {15, 15}, {16, 32}, {31, 47}, {32, 64}, {47, 79},
		{48, 80}, {96, 160}, // next instances (extent 80)
	}
	for _, c := range cases {
		if got := StartPos(dt, c.d); got != c.start {
			t.Errorf("StartPos(%d) = %d, want %d", c.d, got, c.start)
		}
	}
	if got := EndPos(dt, 16); got != 16 {
		t.Errorf("EndPos(16) = %d, want 16", got)
	}
	if got := EndPos(dt, 48); got != 80 {
		t.Errorf("EndPos(48) = %d, want 80", got)
	}
	if got := EndPos(dt, 0); got != StartPos(dt, 0) {
		t.Errorf("EndPos(0) = %d, want StartPos(0)", got)
	}
}

func TestBufToDataVector(t *testing.T) {
	dt := vec(t, 3, 2, 4, datatype.Double)
	cases := []struct{ off, d int64 }{
		{0, 0}, {8, 8}, {16, 16}, {24, 16}, {32, 16}, {40, 24},
		{48, 32}, {64, 32}, {80, 48}, {81, 49}, {112, 64},
	}
	for _, c := range cases {
		if got := BufToData(dt, c.off); got != c.d {
			t.Errorf("BufToData(%d) = %d, want %d", c.off, got, c.d)
		}
	}
}

func TestTypeExtentTypeSizeInverse(t *testing.T) {
	dt := vec(t, 4, 1, 3, datatype.Double) // 8B runs every 24B
	for skip := int64(0); skip < 64; skip += 3 {
		for size := int64(1); size <= 64; size += 7 {
			ext := TypeExtent(dt, skip, size)
			if got := TypeSize(dt, skip, ext); got != size {
				t.Fatalf("TypeSize(skip=%d, TypeExtent=%d) = %d, want %d", skip, ext, got, size)
			}
		}
	}
	if TypeExtent(dt, 5, 0) != 0 {
		t.Error("TypeExtent of size 0 must be 0")
	}
	if TypeSize(dt, 5, 0) != 0 {
		t.Error("TypeSize of extent 0 must be 0")
	}
}

func TestQuickNavigationAgainstOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dt := datatypetest.RandomFiletype(r, 3)
		total := 3 * dt.Size()
		for trial := 0; trial < 20; trial++ {
			d := r.Int63n(total)
			if got, want := StartPos(dt, d), refStartPos(dt, d); got != want {
				t.Logf("%s: StartPos(%d) = %d, want %d", dt, d, got, want)
				return false
			}
			if d > 0 {
				if got, want := EndPos(dt, d), refEndPos(dt, d); got != want {
					t.Logf("%s: EndPos(%d) = %d, want %d", dt, d, got, want)
					return false
				}
			}
			off := r.Int63n(3*dt.Extent() + 1)
			if got, want := BufToData(dt, off), refBufToData(dt, off); got != want {
				t.Logf("%s: BufToData(%d) = %d, want %d", dt, off, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInverseIdentities(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dt := datatypetest.RandomFiletype(r, 3)
		total := 3 * dt.Size()
		for trial := 0; trial < 20; trial++ {
			skip := r.Int63n(total)
			size := 1 + r.Int63n(total-skip)
			ext := TypeExtent(dt, skip, size)
			if ext <= 0 {
				t.Logf("%s: TypeExtent(%d,%d) = %d", dt, skip, size, ext)
				return false
			}
			if got := TypeSize(dt, skip, ext); got != size {
				t.Logf("%s: inverse broken: skip=%d size=%d ext=%d got=%d", dt, skip, size, ext, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestRunsCoverExactRange(t *testing.T) {
	dt := vec(t, 5, 3, 7, datatype.Int32)
	var prevData int64 = 24
	var total int64
	Runs(dt, 24, 150, func(bufOff, dataOff, runLen, stride, n int64) {
		if dataOff != prevData {
			t.Fatalf("non-consecutive data: got %d, want %d", dataOff, prevData)
		}
		if runLen <= 0 || n <= 0 {
			t.Fatalf("bad group (%d,%d)", runLen, n)
		}
		prevData += runLen * n
		total += runLen * n
	})
	if total != 150-24 {
		t.Fatalf("covered %d bytes, want %d", total, 150-24)
	}
}

func TestRunsGroupsRegularVectors(t *testing.T) {
	// A large vector of small blocks must be emitted as few groups, not
	// one emit per block.
	dt := vec(t, 10000, 1, 2, datatype.Double)
	groups := 0
	Runs(dt, 0, dt.Size(), func(bufOff, dataOff, runLen, stride, n int64) {
		groups++
	})
	if groups > 3 {
		t.Fatalf("vector emitted %d groups; grouping is broken", groups)
	}
}

func packOracle(dt *datatype.Type, src []byte, count, skip, limit int64) []byte {
	l := flatten.Flatten(dt)
	out := make([]byte, limit)
	n := flatten.PackList(out, src, l, dt.Extent(), count, skip, limit)
	return out[:n]
}

// unpackCount unpacks into exactly count instances of t by the walk: the
// reference for Program.UnpackCount.
func unpackCount(dst, src []byte, count int64, t *datatype.Type, skip int64) int64 {
	limit := count*t.Size() - skip
	if limit > int64(len(src)) {
		limit = int64(len(src))
	}
	if limit <= 0 {
		return 0
	}
	Runs(t, skip, skip+limit, func(bufOff, dataOff, runLen, stride, n int64) {
		copyGroup(src[dataOff-skip:], dst, bufOff, runLen, stride, n, false)
	})
	return limit
}

func TestPackAgainstOracle(t *testing.T) {
	dt := vec(t, 6, 2, 5, datatype.Int32)
	count := int64(3)
	src := make([]byte, count*dt.Extent()+64)
	for i := range src {
		src[i] = byte(i * 7)
	}
	total := count * dt.Size()
	for skip := int64(0); skip < total; skip += 11 {
		limit := total - skip
		want := packOracle(dt, src, count, skip, limit)
		got := make([]byte, limit)
		n := PackCount(got, src, count, dt, skip)
		if n != int64(len(want)) {
			t.Fatalf("skip=%d: packed %d, want %d", skip, n, len(want))
		}
		if !bytes.Equal(got[:n], want) {
			t.Fatalf("skip=%d: pack mismatch", skip)
		}
	}
}

func TestUnpackAgainstOracle(t *testing.T) {
	dt := vec(t, 6, 2, 5, datatype.Int32)
	count := int64(2)
	total := count * dt.Size()
	packed := make([]byte, total)
	for i := range packed {
		packed[i] = byte(i + 1)
	}
	for skip := int64(0); skip < total; skip += 13 {
		want := make([]byte, count*dt.Extent())
		flatten.UnpackList(want, packed[:total-skip], flatten.Flatten(dt), dt.Extent(), count, skip, total-skip)
		got := make([]byte, len(want))
		n := unpackCount(got, packed[:total-skip], count, dt, skip)
		if n != total-skip {
			t.Fatalf("skip=%d: unpacked %d, want %d", skip, n, total-skip)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("skip=%d: unpack mismatch", skip)
		}
	}
}

func TestQuickPackUnpackAgainstOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dt := datatypetest.RandomFiletype(r, 3)
		count := int64(1 + r.Intn(3))
		src := make([]byte, count*dt.Extent()+dt.TrueUB())
		for i := range src {
			src[i] = byte(r.Intn(256))
		}
		total := count * dt.Size()
		skip := r.Int63n(total)
		limit := 1 + r.Int63n(total-skip)
		want := packOracle(dt, src, count, skip, limit)
		got := make([]byte, limit)
		if n := PackCount(got, src, count, dt, skip); n != int64(len(want)) {
			t.Logf("%s: packed %d want %d", dt, n, len(want))
			return false
		}
		if !bytes.Equal(got, want) {
			t.Logf("%s: pack mismatch skip=%d limit=%d", dt, skip, limit)
			return false
		}
		// Unpack round trip of the packed fragment into a zero buffer,
		// then re-pack and compare.
		dst := make([]byte, len(src))
		if n := unpackCount(dst, got, count, dt, skip); n != limit {
			t.Logf("%s: unpacked %d want %d", dt, n, limit)
			return false
		}
		again := make([]byte, limit)
		PackCount(again, dst, count, dt, skip)
		if !bytes.Equal(again, got) {
			t.Logf("%s: unpack/re-pack mismatch", dt)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPackBufferLimits(t *testing.T) {
	dt := vec(t, 4, 1, 2, datatype.Double) // size 32, extent 56
	// Typed buffer holding 2 whole instances plus a partial third
	// (one more 8-byte run at offset 112).
	src := make([]byte, 2*56+8)
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]byte, 1024)
	n := Pack(dst, src, dt, 0)
	if n != 2*32+8 {
		t.Fatalf("packed %d, want %d", n, 2*32+8)
	}
	// Limited destination.
	small := make([]byte, 10)
	if n := Pack(small, src, dt, 0); n != 10 {
		t.Fatalf("limited pack = %d, want 10", n)
	}
	// Skip beyond available data.
	if n := Pack(dst, src, dt, 100); n != 0 {
		t.Fatalf("skip-past-end pack = %d, want 0", n)
	}
}

func TestUnpackBufferLimits(t *testing.T) {
	dt := vec(t, 4, 1, 2, datatype.Double)
	packed := make([]byte, 1024)
	for i := range packed {
		packed[i] = byte(i + 3)
	}
	dst := make([]byte, 56+24) // one whole instance + 2 runs of the next
	n := Unpack(dst, packed, dt, 0)
	if n != 32+16 {
		t.Fatalf("unpacked %d, want %d", n, 32+16)
	}
}

func TestCopyGroupWidths(t *testing.T) {
	// Exercise the 4/8/16-byte fast paths and the generic path.
	for _, elem := range []*datatype.Type{datatype.Int32, datatype.Double, datatype.Complex128, datatype.Int16} {
		dt := vec(t, 100, 1, 3, elem)
		src := make([]byte, dt.Extent()+elem.Size())
		for i := range src {
			src[i] = byte(i * 13)
		}
		want := packOracle(dt, src, 1, 0, dt.Size())
		got := make([]byte, dt.Size())
		PackCount(got, src, 1, dt, 0)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: width-specialized pack mismatch", elem)
		}
		back := make([]byte, len(src))
		unpackCount(back, got, 1, dt, 0)
		again := make([]byte, dt.Size())
		PackCount(again, back, 1, dt, 0)
		if !bytes.Equal(again, want) {
			t.Fatalf("%s: width-specialized unpack mismatch", elem)
		}
	}
}

func TestCopyRangeWithBias(t *testing.T) {
	dt := vec(t, 8, 1, 2, datatype.Double) // runs at 0,16,...,112
	// Window of the typed buffer starting at absolute offset 32
	// (bias 32), holding runs at 32,48,64,80 (data bytes 16..48).
	window := make([]byte, 64)
	for i := range window {
		window[i] = byte(i + 100)
	}
	out := make([]byte, 32)
	CopyRange(out, window, dt, 16, 48, 32, true)
	// Expected: bytes at window offsets 0..8, 16..24, 32..40, 48..56.
	for r := 0; r < 4; r++ {
		for j := 0; j < 8; j++ {
			want := byte(r*16 + j + 100)
			if out[r*8+j] != want {
				t.Fatalf("run %d byte %d = %d, want %d", r, j, out[r*8+j], want)
			}
		}
	}
	// Inverse direction.
	w2 := make([]byte, 64)
	CopyRange(out, w2, dt, 16, 48, 32, false)
	for r := 0; r < 4; r++ {
		if !bytes.Equal(w2[r*16:r*16+8], window[r*16:r*16+8]) {
			t.Fatalf("unpack run %d mismatch", r)
		}
	}
}

func TestPositioningIsDepthBoundNotBlockBound(t *testing.T) {
	// Sanity check of the central claim: positioning cost must not grow
	// with the block count.  We can't measure time robustly in a unit
	// test, but we can check a 2^20-block vector navigates instantly
	// (this test times out if positioning is linear and repeated).
	dt := vec(t, 1<<20, 1, 2, datatype.Double)
	total := dt.Size()
	for i := 0; i < 200000; i++ {
		d := (int64(i) * 7919) % total
		if StartPos(dt, d) < 0 {
			t.Fatal("negative position")
		}
	}
}
