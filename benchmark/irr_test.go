package main

import (
	"reflect"
	"testing"
)

// TestIrregularDeterministicExactCover checks, on the default and the
// held-out seed, that the generator repeats itself, that the two ranks'
// filetypes cover every byte of the file exactly once, and that each rank
// moves exactly irrBytes through a memory type of the same size.
func TestIrregularDeterministicExactCover(t *testing.T) {
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		if !reflect.DeepEqual(irrLayout(seed), irrLayout(seed)) {
			t.Fatalf("seed %d: layout is not deterministic", seed)
		}
		var fileSize int64
		var geoms [ranks]geometry
		for rank := range geoms {
			g, err := irregular(seed, rank)
			if err != nil {
				t.Fatal(err)
			}
			again, err := irregular(seed, rank)
			if err != nil {
				t.Fatal(err)
			}
			if string(encodeBoth(g)) != string(encodeBoth(again)) {
				t.Fatalf("seed %d rank %d: datatypes are not deterministic", seed, rank)
			}
			if g.bytes() != irrBytes || g.mtype.Size() != irrBytes {
				t.Errorf("seed %d rank %d: filetype holds %d bytes, memtype %d, want %d", seed, rank, g.bytes(), g.mtype.Size(), irrBytes)
			}
			if g.ftype.Blocks() != irrBlocks || g.mtype.Blocks() != irrBlocks {
				t.Errorf("seed %d rank %d: %d file blocks, %d memory blocks, want %d", seed, rank, g.ftype.Blocks(), g.mtype.Blocks(), irrBlocks)
			}
			geoms[rank] = g
			fileSize = max(fileSize, g.fileEnd())
		}
		if fileSize != ranks*irrBytes {
			t.Errorf("seed %d: file is %d bytes, want %d", seed, fileSize, ranks*irrBytes)
		}
		cover := make([]byte, fileSize)
		for _, g := range geoms {
			g.ftype.Walk(func(off, n int64) {
				for i := off; i < off+n; i++ {
					cover[i]++
				}
			})
		}
		for i, c := range cover {
			if c != 1 {
				t.Fatalf("seed %d: file byte %d is covered %d times", seed, i, c)
			}
		}
	}
	if reflect.DeepEqual(irrLayout(defaultSeed), irrLayout(heldOutSeed)) {
		t.Error("the two seeds give the same layout")
	}
}
