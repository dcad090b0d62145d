package fotf

import "repro/internal/datatype"

// Datatype navigation (the paper's MPIR_Type_ff_size and
// MPIR_Type_ff_extent, §3.2.1).  Cost, with depth the tree depth and B
// the largest block count of any single indexed or struct node:
//
//   - data offset -> buffer offset (StartPos, EndPos) is
//     O(depth · log B) for every type: the block holding a data offset is
//     found in the node's prefix sums.
//   - buffer offset -> data offset (BufToData) is O(depth · log B)
//     when every indexed and struct node on the path is sorted — the data
//     ranges of its non-empty blocks ascend without overlapping in block
//     order, which nodeInfo observes once per node and which holds
//     throughout any monotone type map, i.e. any validated filetype.  A
//     node whose blocks interleave (a struct of P interleaved fileviews)
//     is summed block by block instead: O(blocks of that node) times the
//     cost below it.  Vector, contiguous and tiled repetition are closed
//     form either way; only a non-positive stride or tile extent, which
//     no monotone type has, is scanned instance by instance.
//
// Neither direction depends on the expanded block count or on the
// magnitude of the offsets — the property that lets the listless engine
// position anywhere in a fileview without traversing ol-lists.

// StartPos returns the buffer offset of data byte d of the indefinitely
// tiled type t.  d must be >= 0.
func StartPos(t *datatype.Type, d int64) int64 {
	return pos(t, d, false)
}

// EndPos returns the buffer offset just past data byte d-1, i.e. the end
// of the first d data bytes.  d must be > 0; EndPos(t, 0) is defined as
// StartPos(t, 0).
func EndPos(t *datatype.Type, d int64) int64 {
	if d == 0 {
		return StartPos(t, 0)
	}
	return pos(t, d, true)
}

// pos computes, for the indefinitely tiled t, the buffer offset of data
// byte d (end=false) or the offset just past data byte d-1 (end=true).
func pos(t *datatype.Type, d int64, end bool) int64 {
	size := t.Size()
	if size == 0 {
		return 0
	}
	k := d / size
	rem := d - k*size
	if end && rem == 0 {
		k--
		rem = size
	}
	return k*t.Extent() + pos1(t, rem, end)
}

// pos1 is pos within a single instance: 0 <= d <= size, and if end then
// d > 0.
func pos1(t *datatype.Type, d int64, end bool) int64 {
	switch t.Kind() {
	case datatype.KindNamed:
		return d

	case datatype.KindResized:
		return pos1(t.Child(), d, end)

	case datatype.KindContiguous:
		return posTiled(t.Child(), t.Child().Extent(), d, end)

	case datatype.KindVector:
		child := t.Child()
		per := t.Blocklen() * child.Size()
		k := d / per
		rem := d - k*per
		if (end && rem == 0) || k == t.Count() {
			k--
			rem = per
		}
		return k*t.StrideBytes() + posTiled(child, child.Extent(), rem, end)

	case datatype.KindIndexed, datatype.KindStruct:
		ni := info(t)
		i := locateBlock(ni, d, end)
		c := blockChild(t, i)
		return t.Displs()[i] + posTiled(c, c.Extent(), d-ni.cumSize[i], end)
	}
	return 0
}

// locateBlock finds the block index for data offset d.  With end=true,
// an offset on a block boundary belongs to the preceding block.
func locateBlock(ni *nodeInfo, d int64, end bool) int {
	if end {
		return ni.findBlock(d - 1)
	}
	return ni.findBlock(d)
}

// posTiled computes pos within count-unbounded tiling of child at the
// given tile stride; 0 <= d <= available data, and callers guarantee the
// block index stays within the node.
func posTiled(child *datatype.Type, tile, d int64, end bool) int64 {
	per := child.Size()
	k := d / per
	rem := d - k*per
	if end && rem == 0 {
		k--
		rem = per
	}
	return k*tile + pos1(child, rem, end)
}

// BufToData returns the number of data bytes of the indefinitely tiled t
// located at buffer offsets strictly below off; off may be negative or
// many tiles out.  Element extents and t's own extent must be positive,
// as in every monotone type map (guaranteed for validated filetypes);
// the displacements of an indexed or struct node may come in any order.
// It costs O(depth · log node-blocks) when t's indexed and struct nodes
// are sorted, as a monotone type map makes them, and is linear in the
// blocks of each unsorted node otherwise; see the file comment.
func BufToData(t *datatype.Type, off int64) int64 {
	size := t.Size()
	if size == 0 {
		return 0
	}
	ext := t.Extent()
	// Instances i with i*ext + trueUB <= off contribute fully.
	full := floorDiv(off-t.TrueUB(), ext) + 1
	if full < 0 {
		full = 0
	}
	// Instances with i*ext + trueLB < off may contribute partially.
	last := floorDiv(off-t.TrueLB()-1, ext)
	d := full * size
	for i := full; i <= last; i++ {
		d += bufToData1(t, off-i*ext)
	}
	return d
}

// bufToData1 counts the data bytes of one instance of t at offsets
// strictly below off (off relative to the instance origin).
func bufToData1(t *datatype.Type, off int64) int64 {
	if off <= t.TrueLB() {
		return 0
	}
	if off >= t.TrueUB() {
		return t.Size()
	}
	switch t.Kind() {
	case datatype.KindNamed:
		return clamp(off, 0, t.Size())

	case datatype.KindResized:
		return bufToData1(t.Child(), off)

	case datatype.KindContiguous:
		return bufToDataTiled(t.Child(), t.Count(), t.Child().Extent(), off)

	case datatype.KindVector:
		child := t.Child()
		stride := t.StrideBytes()
		per := t.Blocklen() * child.Size()
		blockTrueLB := child.TrueLB()
		blockTrueUB := (t.Blocklen()-1)*child.Extent() + child.TrueUB()
		if stride <= 0 {
			// Degenerate stride: fall back to a bounded scan only when
			// count is small; monotone filetypes never hit this.
			var d int64
			for k := int64(0); k < t.Count(); k++ {
				d += bufToDataBlock(t, off-k*stride)
			}
			return d
		}
		full := floorDiv(off-blockTrueUB, stride) + 1
		full = clamp(full, 0, t.Count())
		last := floorDiv(off-blockTrueLB-1, stride)
		last = clamp(last, -1, t.Count()-1)
		d := full * per
		for k := full; k <= last; k++ {
			d += bufToDataBlock(t, off-k*stride)
		}
		return d

	case datatype.KindIndexed, datatype.KindStruct:
		ni := info(t)
		bl := t.Blocklens()
		displs := t.Displs()
		if ni.ends != nil {
			// Sorted node: blocks before i are wholly below off and
			// blocks after it wholly above.
			i := ni.firstEndAbove(off)
			c := blockChild(t, i)
			return ni.cumSize[i] + bufToDataTiled(c, bl[i], c.Extent(), off-displs[i])
		}
		var d int64
		for i := range bl { // unsorted node: blocks interleave, sum them all
			c := blockChild(t, i)
			d += bufToDataTiled(c, bl[i], c.Extent(), off-displs[i])
		}
		return d
	}
	return 0
}

// bufToDataBlock counts data bytes below off within one vector block of t
// (off relative to the block origin).
func bufToDataBlock(t *datatype.Type, off int64) int64 {
	child := t.Child()
	return bufToDataTiled(child, t.Blocklen(), child.Extent(), off)
}

// bufToDataTiled counts data bytes below off within count instances of
// child tiled at stride tile (off relative to the first instance origin).
func bufToDataTiled(child *datatype.Type, count, tile, off int64) int64 {
	per := child.Size()
	if per == 0 || count == 0 {
		return 0
	}
	if tile <= 0 {
		var d int64
		for k := int64(0); k < count; k++ {
			d += bufToData1(child, off-k*tile)
		}
		return d
	}
	full := floorDiv(off-child.TrueUB(), tile) + 1
	full = clamp(full, 0, count)
	last := floorDiv(off-child.TrueLB()-1, tile)
	last = clamp(last, -1, count-1)
	d := full * per
	for k := full; k <= last; k++ {
		d += bufToData1(child, off-k*tile)
	}
	return d
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
