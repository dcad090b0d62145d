// Package datatypetest builds random datatype trees for the
// property-based tests of datatype and of the packages built on it
// (fotf, flatten, core, ioserver).
package datatypetest

import (
	"math/rand"

	"repro/internal/datatype"
)

// randomType builds a random datatype tree of bounded depth and block
// count, usable as a filetype (non-negative monotone displacements).
func randomType(r *rand.Rand, depth int) *datatype.Type {
	if depth <= 0 || r.Intn(3) == 0 {
		leaves := []*datatype.Type{datatype.Byte, datatype.Int16, datatype.Int32, datatype.Int64, datatype.Double}
		return leaves[r.Intn(len(leaves))]
	}
	child := randomType(r, depth-1)
	switch r.Intn(5) {
	case 0:
		dt, _ := datatype.Contiguous(int64(1+r.Intn(4)), child)
		return dt
	case 1:
		count := int64(1 + r.Intn(5))
		blocklen := int64(r.Intn(4))              // 0 is legal: empty blocks
		stride := blocklen + 1 + int64(r.Intn(3)) // > blocklen keeps it monotone and holey
		dt, _ := datatype.Vector(count, blocklen, stride, child)
		return dt
	case 2:
		n := 1 + r.Intn(4)
		blocklens := make([]int64, n)
		displs := make([]int64, n)
		pos := int64(0)
		for i := 0; i < n; i++ {
			pos += int64(r.Intn(3))
			blocklens[i] = int64(r.Intn(4)) // 0 is legal: empty blocks
			displs[i] = pos
			pos += blocklens[i]
		}
		dt, _ := datatype.Indexed(blocklens, displs, child)
		return dt
	case 3:
		ext := child.Extent()
		dt, _ := datatype.Resized(child, 0, ext+int64(r.Intn(9)))
		return dt
	default:
		n := 1 + r.Intn(3)
		blocklens := make([]int64, n)
		displs := make([]int64, n)
		children := make([]*datatype.Type, n)
		pos := int64(0)
		for i := 0; i < n; i++ {
			c := randomType(r, depth-1)
			pos += int64(r.Intn(5))
			blocklens[i] = int64(r.Intn(3)) // 0 is legal: empty members
			displs[i] = pos
			children[i] = c
			pos += blocklens[i] * c.Extent()
		}
		dt, _ := datatype.Struct(blocklens, displs, children)
		return dt
	}
}

// RandomFiletype returns a random filetype-legal datatype of at most
// maxDepth constructor levels with non-zero size; it is deterministic in
// r.  Its maps are monotone, so it serves as a memtype too: reference
// copies through it are order-independent.
func RandomFiletype(r *rand.Rand, maxDepth int) *datatype.Type {
	for {
		dt := randomType(r, maxDepth)
		if dt.Size() > 0 && datatype.ValidateFiletype(datatype.Byte, dt) == nil {
			return dt
		}
	}
}
