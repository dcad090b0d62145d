// Package fotf implements flattening-on-the-fly, the datatype-handling
// technique at the core of listless I/O (Träff et al., "Flattening on the
// fly", EuroPVM/MPI 1999; Worringen et al., SC'03 §3.1).
//
// Instead of materializing a datatype as an explicit ol-list of
// ⟨offset,length⟩ tuples, fotf operates directly on the datatype tree:
//
//   - Pack / Unpack move data between a typed buffer and a contiguous
//     buffer in time proportional to the bytes moved plus the depth of
//     the tree, regardless of the number of blocks in the type and of
//     the number of bytes skipped;
//   - TypeExtent / TypeSize (the paper's MPIR_Type_ff_extent and
//     MPIR_Type_ff_size) convert between data sizes and buffer extents
//     at arbitrary starting points in O(depth · log node-blocks) (see
//     navigate.go for the exact condition), replacing the O(N_block)
//     linear ol-list traversal of list-based positioning;
//   - Runs enumerates the contiguous runs backing a data range as
//     *groups* of evenly spaced runs, so that callers copy with tight
//     batch loops — the scalar analogue of the vector gather/scatter
//     operations the SX implementation exploits.
//
// Data offsets ("data bytes", the paper's skipbytes) count the bytes of
// actual data in type-map order.  Buffer offsets are byte positions
// relative to the origin of instance 0 of the type.  All functions treat
// the type as tiling indefinitely at its extent, which is how MPI-IO
// fileviews use filetypes.
package fotf

import (
	"math"

	"repro/internal/datatype"
)

// nodeInfo is the navigation index of one indexed or struct node.  The
// tables are proportional to the *tree* (the node's own block count),
// never to the expanded number of leaf blocks, and live in the node's
// derived-data slot, so they are built once per node and freed with it.
type nodeInfo struct {
	// cumSize[i] = data bytes in blocks [0,i): data offset -> block is a
	// binary search (findBlock).
	cumSize []int64
	// ends is non-nil iff the node is sorted: the data ranges
	// [displ+trueLB, displ+trueUB) of its non-empty blocks are ascending
	// and disjoint in block order, as in every monotone filetype.  Then
	// buffer offset -> block is a binary search too (firstEndAbove):
	// ends[i] is the end of block i's range, and an empty block repeats
	// its predecessor's entry, so ends is non-decreasing and the search
	// never lands on an empty block.  A node whose blocks interleave (a
	// struct of interleaved fileviews) has ends == nil and is summed block
	// by block.
	ends []int64
}

// blockChild returns the element type of block i of an indexed or struct
// node.
func blockChild(t *datatype.Type, i int) *datatype.Type {
	if t.Kind() == datatype.KindStruct {
		return t.Children()[i]
	}
	return t.Child()
}

func info(t *datatype.Type) *nodeInfo {
	nav := &t.Derived().Nav
	if v := nav.Load(); v != nil {
		return v.(*nodeInfo)
	}
	return nav.Store(buildInfo(t)).(*nodeInfo)
}

func buildInfo(t *datatype.Type) *nodeInfo {
	bl := t.Blocklens()
	displs := t.Displs()
	ni := &nodeInfo{cumSize: make([]int64, len(bl)+1), ends: make([]int64, len(bl))}
	prevEnd := int64(math.MinInt64)
	for i, b := range bl {
		c := blockChild(t, i)
		ni.cumSize[i+1] = ni.cumSize[i] + b*c.Size()
		if ni.ends == nil {
			continue
		}
		if b > 0 && c.Size() > 0 {
			// The block's instances tile at the child's extent, which
			// may be negative.
			span := (b - 1) * c.Extent()
			lo := displs[i] + min(0, span) + c.TrueLB()
			if lo < prevEnd {
				ni.ends = nil
				continue
			}
			prevEnd = displs[i] + max(0, span) + c.TrueUB()
		}
		ni.ends[i] = prevEnd
	}
	return ni
}

// firstEndAbove returns the first block whose data range ends above
// buffer offset off; every earlier block lies wholly below off and every
// later one wholly at or above it.  The node must be sorted and the
// caller guarantees off < trueUB, so such a block exists.
func (ni *nodeInfo) firstEndAbove(off int64) int {
	lo, hi := 0, len(ni.ends)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ni.ends[mid] <= off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// findBlock returns the index i of the block containing data offset d,
// i.e. the smallest i with cum[i+1] > d, skipping empty blocks.  The
// caller guarantees 0 <= d < cum[len-1].
func (ni *nodeInfo) findBlock(d int64) int {
	lo, hi := 0, len(ni.cumSize)-2
	for lo < hi {
		mid := (lo + hi) / 2
		if ni.cumSize[mid+1] <= d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// EmitFunc receives one group of n evenly spaced runs: run i (0 <= i < n)
// is runLen bytes at buffer offset bufOff + i*stride and corresponds to
// data bytes [dataOff + i*runLen, dataOff + (i+1)*runLen).
type EmitFunc func(bufOff, dataOff, runLen, stride, n int64)

// Runs enumerates the contiguous runs of the typed data of t (tiling
// indefinitely) restricted to the data range [d0, d1), in type-map order,
// as groups of evenly spaced runs.  Positioning to d0 costs O(Depth);
// the number of emitted groups is proportional to the runs actually
// touched, with regular (vector-like) regions collapsed into single
// groups.
func Runs(t *datatype.Type, d0, d1 int64, emit EmitFunc) {
	size := t.Size()
	if d1 <= d0 || size == 0 {
		return
	}
	if t.ContiguousTiled() {
		// Contiguous tiling maps data offsets one-to-one to buffer
		// offsets (shifted by TrueLB): one run, regardless of range.
		emit(t.TrueLB()+d0, d0, d1-d0, 0, 1)
		return
	}
	ext := t.Extent()
	k0 := d0 / size
	k1 := (d1 - 1) / size
	for k := k0; k <= k1; k++ {
		lo, hi := int64(0), size
		if k == k0 {
			lo = d0 - k*size
		}
		if k == k1 {
			hi = d1 - k*size
		}
		runs(t, k*ext, k*size, lo, hi, emit)
	}
}

// runs emits the runs of data range [lo, hi) of a single instance of t
// whose origin is at buffer offset base; gd is the global data offset of
// local data offset 0.
func runs(t *datatype.Type, base, gd, lo, hi int64, emit EmitFunc) {
	if hi <= lo {
		return
	}
	switch t.Kind() {
	case datatype.KindNamed:
		emit(base+lo, gd+lo, hi-lo, 0, 1)

	case datatype.KindResized:
		runs(t.Child(), base, gd, lo, hi, emit)

	case datatype.KindContiguous:
		child := t.Child()
		runsTiled(child, t.Count(), child.Extent(), base, gd, lo, hi, emit)

	case datatype.KindVector:
		child := t.Child()
		per := t.Blocklen() * child.Size() // data bytes per block
		k0 := lo / per
		k1 := (hi - 1) / per
		// A block is one dense run when its children tile contiguously,
		// or when there is a single dense child.
		blockDense := child.ContiguousTiled() || (t.Blocklen() == 1 && child.Dense())
		if k0 == k1 {
			blockRuns(t, base+k0*t.StrideBytes(), gd+k0*per, lo-k0*per, hi-k0*per, emit)
			return
		}
		// Head partial block.
		if lo != k0*per {
			blockRuns(t, base+k0*t.StrideBytes(), gd+k0*per, lo-k0*per, per, emit)
			k0++
		}
		// Tail partial block.
		tail := hi != (k1+1)*per
		kEnd := k1
		if tail {
			kEnd = k1 - 1
		}
		// Middle full blocks: one group when dense.
		if kEnd >= k0 {
			n := kEnd - k0 + 1
			if blockDense {
				emit(base+k0*t.StrideBytes()+child.TrueLB(), gd+k0*per, per, t.StrideBytes(), n)
			} else {
				for k := k0; k <= kEnd; k++ {
					blockRuns(t, base+k*t.StrideBytes(), gd+k*per, 0, per, emit)
				}
			}
		}
		if tail {
			blockRuns(t, base+k1*t.StrideBytes(), gd+k1*per, 0, hi-k1*per, emit)
		}

	case datatype.KindIndexed:
		child := t.Child()
		ni := info(t)
		bl := t.Blocklens()
		displs := t.Displs()
		i := ni.findBlock(lo)
		for ; i < len(bl) && ni.cumSize[i] < hi; i++ {
			if bl[i] == 0 {
				continue
			}
			blo, bhi := int64(0), bl[i]*child.Size()
			if d := lo - ni.cumSize[i]; d > blo {
				blo = d
			}
			if d := hi - ni.cumSize[i]; d < bhi {
				bhi = d
			}
			runsTiled(child, bl[i], child.Extent(), base+displs[i], gd+ni.cumSize[i], blo, bhi, emit)
		}

	case datatype.KindStruct:
		ni := info(t)
		bl := t.Blocklens()
		displs := t.Displs()
		children := t.Children()
		i := ni.findBlock(lo)
		for ; i < len(bl) && ni.cumSize[i] < hi; i++ {
			c := children[i]
			if bl[i] == 0 || c.Size() == 0 {
				continue
			}
			blo, bhi := int64(0), bl[i]*c.Size()
			if d := lo - ni.cumSize[i]; d > blo {
				blo = d
			}
			if d := hi - ni.cumSize[i]; d < bhi {
				bhi = d
			}
			runsTiled(c, bl[i], c.Extent(), base+displs[i], gd+ni.cumSize[i], blo, bhi, emit)
		}
	}
}

// blockRuns emits the runs of data range [lo, hi) of one vector block of
// t (blocklen children tiling at child extent) whose block origin is at
// buffer offset base.
func blockRuns(t *datatype.Type, base, gd, lo, hi int64, emit EmitFunc) {
	child := t.Child()
	runsTiled(child, t.Blocklen(), child.Extent(), base, gd, lo, hi, emit)
}

// runsTiled emits the runs of data range [lo, hi) of count instances of
// child tiling at stride tile from buffer offset base.
func runsTiled(child *datatype.Type, count, tile, base, gd, lo, hi int64, emit EmitFunc) {
	if hi <= lo {
		return
	}
	per := child.Size()
	if per == 0 {
		return
	}
	if child.ContiguousTiled() {
		// The whole region is a single run (child extent == size)
		// starting at the first child's TrueLB.
		emit(base+child.TrueLB()+lo, gd+lo, hi-lo, 0, 1)
		return
	}
	k0 := lo / per
	k1 := (hi - 1) / per
	if k0 == k1 {
		runs(child, base+k0*tile, gd+k0*per, lo-k0*per, hi-k0*per, emit)
		return
	}
	if lo != k0*per {
		runs(child, base+k0*tile, gd+k0*per, lo-k0*per, per, emit)
		k0++
	}
	tail := hi != (k1+1)*per
	kEnd := k1
	if tail {
		kEnd = k1 - 1
	}
	if kEnd >= k0 {
		n := kEnd - k0 + 1
		if child.Dense() {
			emit(base+k0*tile+child.TrueLB(), gd+k0*per, per, tile, n)
		} else {
			for k := k0; k <= kEnd; k++ {
				runs(child, base+k*tile, gd+k*per, 0, per, emit)
			}
		}
	}
	if tail {
		runs(child, base+k1*tile, gd+k1*per, 0, hi-k1*per, emit)
	}
}
