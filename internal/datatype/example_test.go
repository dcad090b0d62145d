package datatype_test

import (
	"fmt"

	"repro/internal/datatype"
)

// A strided vector — the paper's canonical non-contiguous layout: 1000
// doubles, one every second slot.
func ExampleVector() {
	dt, err := datatype.Vector(1000, 1, 2, datatype.Double)
	if err != nil {
		panic(err)
	}
	fmt.Println("size:  ", dt.Size())
	fmt.Println("extent:", dt.Extent())
	fmt.Println("blocks:", dt.Blocks())
	// Output:
	// size:   8000
	// extent: 15992
	// blocks: 1000
}

// A subarray fileview: one 2×3 tile of a 4×6 matrix.  The extent spans
// the whole matrix, so the type tiles correctly as a filetype.
func ExampleSubarray() {
	dt, err := datatype.Subarray(
		[]int64{4, 6}, // matrix dimensions
		[]int64{2, 3}, // tile dimensions
		[]int64{1, 2}, // tile origin
		datatype.OrderC,
		datatype.Double,
	)
	if err != nil {
		panic(err)
	}
	dt.Walk(func(off, length int64) {
		fmt.Printf("row at byte %d, %d bytes\n", off, length)
	})
	// Output:
	// row at byte 64, 24 bytes
	// row at byte 112, 24 bytes
}

// The compact encoding is proportional to the datatype tree, not to the
// number of blocks — the property fileview caching relies on.
func ExampleEncode() {
	dt, err := datatype.Vector(1<<20, 1, 2, datatype.Double)
	if err != nil {
		panic(err)
	}
	enc := datatype.Encode(dt)
	fmt.Println("blocks:       ", dt.Blocks())
	fmt.Println("encoded bytes:", len(enc))
	back, err := datatype.Decode(enc)
	if err != nil {
		panic(err)
	}
	fmt.Println("round-trip ok:", back.Size() == dt.Size())
	// Output:
	// blocks:        1048576
	// encoded bytes: 17
	// round-trip ok: true
}
