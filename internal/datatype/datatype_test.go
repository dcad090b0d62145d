package datatype

import (
	"testing"
)

func mustContig(t *testing.T, count int64, child *Type) *Type {
	t.Helper()
	dt, err := Contiguous(count, child)
	if err != nil {
		t.Fatalf("Contiguous(%d): %v", count, err)
	}
	return dt
}

func mustVector(t *testing.T, count, blocklen, stride int64, child *Type) *Type {
	t.Helper()
	dt, err := Vector(count, blocklen, stride, child)
	if err != nil {
		t.Fatalf("Vector(%d,%d,%d): %v", count, blocklen, stride, err)
	}
	return dt
}

// collect returns the (uncoalesced) walk segments of one instance.
func collect(dt *Type) (offs, lens []int64) {
	dt.Walk(func(off, length int64) {
		offs = append(offs, off)
		lens = append(lens, length)
	})
	return
}

func sumLens(lens []int64) int64 {
	var s int64
	for _, l := range lens {
		s += l
	}
	return s
}

func TestNamedTypes(t *testing.T) {
	cases := []struct {
		dt   *Type
		size int64
	}{
		{Byte, 1}, {Char, 1}, {Int8, 1}, {Int16, 2}, {Int32, 4},
		{Int64, 8}, {Uint64, 8}, {Float32, 4}, {Float64, 8}, {Complex128, 16},
	}
	for _, c := range cases {
		if c.dt.Size() != c.size {
			t.Errorf("%s: size = %d, want %d", c.dt.Name(), c.dt.Size(), c.size)
		}
		if c.dt.Extent() != c.size {
			t.Errorf("%s: extent = %d, want %d", c.dt.Name(), c.dt.Extent(), c.size)
		}
		if !c.dt.Dense() || !c.dt.ContiguousTiled() {
			t.Errorf("%s: should be dense and tileable", c.dt.Name())
		}
		if c.dt.depth != 1 || c.dt.Blocks() != 1 {
			t.Errorf("%s: depth=%d blocks=%d, want 1/1", c.dt.Name(), c.dt.depth, c.dt.Blocks())
		}
	}
}

func TestMarkers(t *testing.T) {
	if LBMarker.Size() != 0 || UBMarker.Size() != 0 {
		t.Fatal("markers must have zero size")
	}
	if LBMarker.Extent() != 0 || UBMarker.Extent() != 0 {
		t.Fatal("markers must have zero extent")
	}
}

func TestContiguous(t *testing.T) {
	dt := mustContig(t, 10, Double)
	if dt.Size() != 80 || dt.Extent() != 80 {
		t.Fatalf("size/extent = %d/%d, want 80/80", dt.Size(), dt.Extent())
	}
	if !dt.Dense() || !dt.ContiguousTiled() {
		t.Fatal("contig of double should be dense and tileable")
	}
	if dt.Blocks() != 1 {
		t.Fatalf("blocks = %d, want 1", dt.Blocks())
	}
	offs, lens := collect(dt)
	if len(offs) != 1 || offs[0] != 0 || lens[0] != 80 {
		t.Fatalf("walk = %v/%v, want [0]/[80]", offs, lens)
	}
}

func TestContiguousEmpty(t *testing.T) {
	dt := mustContig(t, 0, Double)
	if dt.Size() != 0 || dt.Blocks() != 0 {
		t.Fatalf("empty contig: size=%d blocks=%d", dt.Size(), dt.Blocks())
	}
	offs, _ := collect(dt)
	if len(offs) != 0 {
		t.Fatalf("empty contig walked %d blocks", len(offs))
	}
}

func TestVectorBasic(t *testing.T) {
	// 3 blocks of 2 doubles, stride 4 doubles: |XX..|XX..|XX
	dt := mustVector(t, 3, 2, 4, Double)
	if dt.Size() != 48 {
		t.Fatalf("size = %d, want 48", dt.Size())
	}
	// extent: lb=0, ub = (3-1)*32 + (2-1)*8 + 8 = 64+16 = 80
	if dt.Extent() != 80 {
		t.Fatalf("extent = %d, want 80", dt.Extent())
	}
	if dt.Dense() {
		t.Fatal("strided vector must not be dense")
	}
	if dt.Blocks() != 3 {
		t.Fatalf("blocks = %d, want 3", dt.Blocks())
	}
	offs, lens := collect(dt)
	wantOffs := []int64{0, 32, 64}
	for i := range wantOffs {
		if offs[i] != wantOffs[i] || lens[i] != 16 {
			t.Fatalf("walk[%d] = (%d,%d), want (%d,16)", i, offs[i], lens[i], wantOffs[i])
		}
	}
}

func TestVectorDegenerate(t *testing.T) {
	// stride == blocklen: actually contiguous.
	dt := mustVector(t, 4, 3, 3, Double)
	if !dt.Dense() {
		t.Fatal("stride==blocklen vector should be dense")
	}
	if dt.Blocks() != 1 {
		t.Fatalf("blocks = %d, want 1", dt.Blocks())
	}
	if dt.Size() != 96 || dt.Extent() != 96 {
		t.Fatalf("size/extent = %d/%d, want 96/96", dt.Size(), dt.Extent())
	}
}

func TestHvectorByteStride(t *testing.T) {
	dt, err := Hvector(2, 1, 10, Int32)
	if err != nil {
		t.Fatal(err)
	}
	offs, lens := collect(dt)
	if len(offs) != 2 || offs[0] != 0 || offs[1] != 10 || lens[0] != 4 {
		t.Fatalf("walk = %v/%v", offs, lens)
	}
	if dt.Extent() != 14 {
		t.Fatalf("extent = %d, want 14", dt.Extent())
	}
}

func TestIndexed(t *testing.T) {
	dt, err := Indexed([]int64{2, 1, 3}, []int64{0, 4, 8}, Double)
	if err != nil {
		t.Fatal(err)
	}
	if dt.Size() != 48 {
		t.Fatalf("size = %d, want 48", dt.Size())
	}
	if dt.Blocks() != 3 {
		t.Fatalf("blocks = %d, want 3", dt.Blocks())
	}
	offs, lens := collect(dt)
	wantOffs := []int64{0, 32, 64}
	wantLens := []int64{16, 8, 24}
	for i := range wantOffs {
		if offs[i] != wantOffs[i] || lens[i] != wantLens[i] {
			t.Fatalf("walk[%d] = (%d,%d), want (%d,%d)", i, offs[i], lens[i], wantOffs[i], wantLens[i])
		}
	}
	if dt.Extent() != 88 {
		t.Fatalf("extent = %d, want 88", dt.Extent())
	}
}

func TestIndexedAdjacentBlocksStayDense(t *testing.T) {
	dt, err := Indexed([]int64{2, 2}, []int64{0, 2}, Double)
	if err != nil {
		t.Fatal(err)
	}
	if !dt.Dense() {
		t.Fatal("adjacent indexed blocks should be dense")
	}
	if dt.Blocks() != 1 {
		t.Fatalf("blocks = %d, want 1 after density detection", dt.Blocks())
	}
}

func TestIndexedOutOfOrderNotDense(t *testing.T) {
	dt, err := Indexed([]int64{1, 1}, []int64{1, 0}, Double)
	if err != nil {
		t.Fatal(err)
	}
	// Data covers [0,16) but the type map is out of order: pack order
	// differs from memory order, so this must not be treated as dense.
	if dt.Dense() {
		t.Fatal("out-of-order indexed must not be dense")
	}
}

func TestStructWithMarkers(t *testing.T) {
	// The Figure-4 noncontig type: LB at 0, vector at disp, UB at extent.
	vec := mustVector(t, 4, 1, 3, Double) // 4 blocks of 1 double, stride 3
	disp := int64(8)
	extent := int64(4 * 3 * 8) // blockcount * stride(elems) * elemsize
	dt, err := Struct(
		[]int64{1, 1, 1},
		[]int64{0, disp, extent},
		[]*Type{LBMarker, vec, UBMarker},
	)
	if err != nil {
		t.Fatal(err)
	}
	if dt.lb != 0 {
		t.Fatalf("lb = %d, want 0", dt.lb)
	}
	if dt.ub != extent {
		t.Fatalf("ub = %d, want %d", dt.ub, extent)
	}
	if dt.Size() != 32 {
		t.Fatalf("size = %d, want 32", dt.Size())
	}
	offs, _ := collect(dt)
	if offs[0] != disp {
		t.Fatalf("first block at %d, want %d", offs[0], disp)
	}
}

func TestResized(t *testing.T) {
	dt, err := Resized(Double, 0, 24)
	if err != nil {
		t.Fatal(err)
	}
	if dt.Size() != 8 || dt.Extent() != 24 {
		t.Fatalf("size/extent = %d/%d, want 8/24", dt.Size(), dt.Extent())
	}
	if dt.ContiguousTiled() {
		t.Fatal("resized with padding must not be tileable")
	}
	// Vector of resized children has holes.
	v := mustContig(t, 3, dt)
	offs, lens := collect(v)
	want := []int64{0, 24, 48}
	for i := range want {
		if offs[i] != want[i] || lens[i] != 8 {
			t.Fatalf("walk[%d] = (%d,%d), want (%d,8)", i, offs[i], lens[i], want[i])
		}
	}
}

func TestSubarray2D(t *testing.T) {
	// 4x6 array of doubles, select 2x3 starting at (1,2), C order.
	dt, err := Subarray([]int64{4, 6}, []int64{2, 3}, []int64{1, 2}, OrderC, Double)
	if err != nil {
		t.Fatal(err)
	}
	if dt.Size() != 2*3*8 {
		t.Fatalf("size = %d, want 48", dt.Size())
	}
	if dt.Extent() != 4*6*8 {
		t.Fatalf("extent = %d, want %d", dt.Extent(), 4*6*8)
	}
	offs, lens := collect(dt)
	// Rows 1 and 2, cols 2..4: offsets (1*6+2)*8=64 and (2*6+2)*8=112.
	want := []int64{64, 112}
	if len(offs) != 2 {
		t.Fatalf("walk blocks = %d, want 2 (%v)", len(offs), offs)
	}
	for i := range want {
		if offs[i] != want[i] || lens[i] != 24 {
			t.Fatalf("walk[%d] = (%d,%d), want (%d,24)", i, offs[i], lens[i], want[i])
		}
	}
}

func TestSubarrayFortranOrder(t *testing.T) {
	// Same region in Fortran order: first dim fastest.
	// 4x6 array (dims d0=4, d1=6), select (2,3) at (1,2).
	dt, err := Subarray([]int64{4, 6}, []int64{2, 3}, []int64{1, 2}, OrderFortran, Double)
	if err != nil {
		t.Fatal(err)
	}
	if dt.Size() != 48 || dt.Extent() != 192 {
		t.Fatalf("size/extent = %d/%d, want 48/192", dt.Size(), dt.Extent())
	}
	offs, lens := collect(dt)
	// Columns j=2,3,4; each contributes rows 1..2 → offset (j*4+1)*8, len 16.
	want := []int64{72, 104, 136}
	if len(offs) != 3 {
		t.Fatalf("walk blocks = %d, want 3 (%v)", len(offs), offs)
	}
	for i := range want {
		if offs[i] != want[i] || lens[i] != 16 {
			t.Fatalf("walk[%d] = (%d,%d), want (%d,16)", i, offs[i], lens[i], want[i])
		}
	}
}

func TestSubarray3DWholeIsContiguous(t *testing.T) {
	dt, err := Subarray([]int64{3, 4, 5}, []int64{3, 4, 5}, []int64{0, 0, 0}, OrderC, Double)
	if err != nil {
		t.Fatal(err)
	}
	if !dt.Dense() {
		t.Fatal("whole-array subarray should be dense")
	}
	if dt.Size() != 3*4*5*8 {
		t.Fatalf("size = %d", dt.Size())
	}
}

func TestSubarrayValidation(t *testing.T) {
	if _, err := Subarray([]int64{4}, []int64{5}, []int64{0}, OrderC, Double); err == nil {
		t.Fatal("oversized subsize must fail")
	}
	if _, err := Subarray([]int64{4}, []int64{2}, []int64{3}, OrderC, Double); err == nil {
		t.Fatal("start+subsize beyond size must fail")
	}
	if _, err := Subarray([]int64{4, 4}, []int64{2}, []int64{0}, OrderC, Double); err == nil {
		t.Fatal("dimension mismatch must fail")
	}
}

func TestNestedVectorOfVector(t *testing.T) {
	inner := mustVector(t, 2, 1, 2, Double) // X.X, extent 24
	// Vector stride is in child extents: 40 B stride via Hvector.
	outer, err := Hvector(3, 1, 40, inner)
	if err != nil {
		t.Fatal(err)
	}
	if outer.Size() != 48 {
		t.Fatalf("size = %d, want 48", outer.Size())
	}
	if outer.Blocks() != 6 {
		t.Fatalf("blocks = %d, want 6", outer.Blocks())
	}
	offs, _ := collect(outer)
	want := []int64{0, 16, 40, 56, 80, 96}
	for i := range want {
		if offs[i] != want[i] {
			t.Fatalf("walk offsets = %v, want %v", offs, want)
		}
	}
	if outer.depth != 3 {
		t.Fatalf("depth = %d, want 3", outer.depth)
	}
}

func TestWalkTotalSizeMatches(t *testing.T) {
	types := []*Type{
		mustVector(t, 7, 3, 5, Int32),
		mustContig(t, 4, mustVector(t, 2, 1, 3, Double)),
	}
	sub, err := Subarray([]int64{5, 5}, []int64{2, 2}, []int64{1, 1}, OrderC, Int64)
	if err != nil {
		t.Fatal(err)
	}
	types = append(types, sub)
	for _, dt := range types {
		_, lens := collect(dt)
		if got := sumLens(lens); got != dt.Size() {
			t.Errorf("%s: walk total %d != size %d", dt, got, dt.Size())
		}
	}
}

func TestConstructorErrors(t *testing.T) {
	if _, err := Contiguous(-1, Double); err == nil {
		t.Error("negative count must fail")
	}
	if _, err := Contiguous(3, nil); err == nil {
		t.Error("nil child must fail")
	}
	if _, err := Vector(2, -1, 3, Double); err == nil {
		t.Error("negative blocklen must fail")
	}
	if _, err := Hindexed([]int64{1, 2}, []int64{0}, Double); err == nil {
		t.Error("length mismatch must fail")
	}
	if _, err := Struct([]int64{1}, []int64{0, 8}, []*Type{Double}); err == nil {
		t.Error("struct length mismatch must fail")
	}
	if _, err := Struct([]int64{1}, []int64{0}, []*Type{nil}); err == nil {
		t.Error("struct nil child must fail")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	sub, err := Subarray([]int64{10, 10, 10}, []int64{4, 5, 6}, []int64{1, 2, 3}, OrderFortran, Double)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Indexed([]int64{1, 2, 3}, []int64{0, 5, 11}, Int32)
	if err != nil {
		t.Fatal(err)
	}
	str, err := Struct([]int64{1, 2, 1}, []int64{0, 16, 100}, []*Type{Int64, idx, UBMarker})
	if err != nil {
		t.Fatal(err)
	}
	for _, dt := range []*Type{Byte, Double, mustVector(t, 9, 2, 7, Double), sub, idx, str} {
		enc := Encode(dt)
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode(%s): %v", dt, err)
		}
		if got.Size() != dt.Size() || got.Extent() != dt.Extent() ||
			got.lb != dt.lb || got.Blocks() != dt.Blocks() {
			t.Fatalf("round trip mismatch: %s -> %s", dt.Summary(), got.Summary())
		}
		o1, l1 := collect(dt)
		o2, l2 := collect(got)
		if len(o1) != len(o2) {
			t.Fatalf("walk length mismatch after round trip: %d vs %d", len(o1), len(o2))
		}
		for i := range o1 {
			if o1[i] != o2[i] || l1[i] != l2[i] {
				t.Fatalf("walk mismatch at %d after round trip", i)
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("empty decode must fail")
	}
	if _, err := Decode([]byte{255}); err == nil {
		t.Error("unknown kind must fail")
	}
	enc := Encode(Double)
	if _, err := Decode(enc[:len(enc)-1]); err == nil {
		t.Error("truncated decode must fail")
	}
	if _, err := Decode(append(enc, 0)); err == nil {
		t.Error("trailing bytes must fail")
	}
}

func TestEncodedSizeIsTreeProportional(t *testing.T) {
	// The point of the compact representation: a 1M-block vector encodes
	// in a few bytes, while its ol-list would be 16 MB.
	dt := mustVector(t, 1<<20, 1, 2, Double)
	if n := EncodedSize(dt); n > 64 {
		t.Fatalf("encoded size %d for 1M-block vector; want tree-proportional (<= 64)", n)
	}
}

func TestValidateFiletype(t *testing.T) {
	vec := mustVector(t, 4, 2, 3, Double)
	if err := ValidateFiletype(Double, vec); err != nil {
		t.Fatalf("legal filetype rejected: %v", err)
	}
	// Negative displacement via struct.
	neg, err := Struct([]int64{1}, []int64{-8}, []*Type{Double})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateFiletype(Double, neg); err == nil {
		t.Fatal("negative displacement must be rejected")
	}
	// Non-monotone.
	ooo, err := Hindexed([]int64{1, 1}, []int64{8, 0}, Double)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateFiletype(Double, ooo); err == nil {
		t.Fatal("non-monotone filetype must be rejected")
	}
	// Size not a multiple of etype.
	if err := ValidateFiletype(Int32, mustVector(t, 1, 1, 1, Byte)); err == nil {
		t.Fatal("non-multiple filetype must be rejected")
	}
	// Overlapping tiling: extent smaller than data end.
	overlap, err := Resized(mustContig(t, 2, Double), 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateFiletype(Double, overlap); err == nil {
		t.Fatal("tiling overlap must be rejected")
	}
	if err := ValidateEtype(nil); err == nil {
		t.Fatal("nil etype must be rejected")
	}
	if err := ValidateEtype(LBMarker); err == nil {
		t.Fatal("zero-size etype must be rejected")
	}
}

func TestStringAndSummary(t *testing.T) {
	dt := mustVector(t, 3, 2, 4, Double)
	if s := dt.String(); s == "" {
		t.Fatal("empty String()")
	}
	if s := dt.Summary(); s == "" {
		t.Fatal("empty Summary()")
	}
	sub, _ := Subarray([]int64{4, 4}, []int64{2, 2}, []int64{0, 0}, OrderC, Double)
	idx, _ := Indexed([]int64{1}, []int64{0}, Double)
	str, _ := Struct([]int64{1}, []int64{0}, []*Type{Double})
	for _, x := range []*Type{Byte, sub, idx, str} {
		if x.String() == "" {
			t.Errorf("empty String for %v", x.Kind())
		}
	}
}
