package main

import (
	"math/rand"

	"repro/internal/datatype"
)

// The irr workload's generator.  2·irrBlocks blocks with seeded lengths
// lie end to end over the file and belong to the two ranks alternately,
// so the ranks' views are disjoint, jointly cover the file, and no two
// blocks of one rank touch.  Each rank's memory type holds its blocks in
// a seeded shuffled order with seeded gaps, so neither side of the copy
// has a regular stride to collapse into one run group.  Every rank's
// blocks sum to exactly irrBytes whatever the seed: the collective cuts
// the file into 1 MiB windows, and a file a few bytes over 8 MiB costs a
// whole extra window per I/O process, which made the run time depend on
// the seed by a fifth.
const (
	irrBlocks  = 32768 // per rank
	irrMinLen  = 8
	irrMaxLen  = 248
	irrLenStep = 8
	irrBytes   = 4 << 20 // per rank: irrBlocks blocks of mean length 128

	defaultSeed = 1 // documented in README.md; heldOutSeed is never used while tuning
	heldOutSeed = 20030915
)

func irrLen(r *rand.Rand) int64 {
	return irrMinLen + irrLenStep*r.Int63n((irrMaxLen-irrMinLen)/irrLenStep+1)
}

// irrLayout returns every block's length, in file order: seeded draws,
// then seeded single steps up or down on blocks of the rank that is over
// or under irrBytes until each rank holds exactly that much.
func irrLayout(seed int64) []int64 {
	r := rand.New(rand.NewSource(seed))
	lens := make([]int64, ranks*irrBlocks)
	var sum [ranks]int64
	for i := range lens {
		lens[i] = irrLen(r)
		sum[i%ranks] += lens[i]
	}
	for rank := 0; rank < ranks; rank++ {
		for sum[rank] != irrBytes {
			i := r.Intn(irrBlocks)*ranks + rank
			step := int64(irrLenStep)
			if sum[rank] > irrBytes {
				step = -step
			}
			if n := lens[i] + step; n >= irrMinLen && n <= irrMaxLen {
				lens[i], sum[rank] = n, sum[rank]+step
			}
		}
	}
	return lens
}

// irregular builds rank's geometry for the irr workload.
func irregular(seed int64, rank int) (geometry, error) {
	layout := irrLayout(seed)
	lens := make([]int64, 0, irrBlocks)
	displs := make([]int64, 0, irrBlocks)
	var off int64
	for i, n := range layout {
		if i%ranks == rank {
			lens = append(lens, n)
			displs = append(displs, off)
		}
		off += n
	}
	hidx, err := datatype.Hindexed(lens, displs, datatype.Byte)
	if err != nil {
		return geometry{}, err
	}
	ft, err := datatype.Resized(hidx, 0, off)
	if err != nil {
		return geometry{}, err
	}

	r := rand.New(rand.NewSource(seed*ranks + int64(rank) + 1))
	mlens := append([]int64(nil), lens...)
	r.Shuffle(len(mlens), func(i, j int) { mlens[i], mlens[j] = mlens[j], mlens[i] })
	mdispls := make([]int64, len(mlens))
	var moff int64
	for i, n := range mlens {
		moff += irrLen(r) // the gap before block i
		mdispls[i] = moff
		moff += n
	}
	mt, err := datatype.Hindexed(mlens, mdispls, datatype.Byte)
	if err != nil {
		return geometry{}, err
	}
	return geometry{ftype: ft, mtype: mt, count: 1}, nil
}
