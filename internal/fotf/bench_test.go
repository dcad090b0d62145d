package fotf

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datatype"
	"repro/internal/flatten"
)

// Micro-benchmarks for the flattening-on-the-fly primitives, paired with
// their list-based counterparts where one exists.

func benchType(b *testing.B, blocklen int64) *datatype.Type {
	b.Helper()
	count := int64(1<<20) / blocklen
	dt, err := datatype.Hvector(count, blocklen, 2*blocklen, datatype.Byte)
	if err != nil {
		b.Fatal(err)
	}
	return dt
}

func BenchmarkPack(b *testing.B) {
	for _, blocklen := range []int64{8, 64, 4096} {
		dt := benchType(b, blocklen)
		src := make([]byte, dt.Extent())
		dst := make([]byte, dt.Size())
		b.Run(fmt.Sprintf("Sblock=%d", blocklen), func(b *testing.B) {
			b.SetBytes(dt.Size())
			for i := 0; i < b.N; i++ {
				PackCount(dst, src, 1, dt, 0)
			}
		})
	}
}

func BenchmarkUnpack(b *testing.B) {
	for _, blocklen := range []int64{8, 64, 4096} {
		dt := benchType(b, blocklen)
		src := make([]byte, dt.Size())
		dst := make([]byte, dt.Extent())
		b.Run(fmt.Sprintf("Sblock=%d", blocklen), func(b *testing.B) {
			b.SetBytes(dt.Size())
			for i := 0; i < b.N; i++ {
				UnpackCount(dst, src, 1, dt, 0)
			}
		})
	}
}

func BenchmarkPackWithSkip(b *testing.B) {
	// Skip cost must be independent of the skip magnitude.
	dt := benchType(b, 8)
	src := make([]byte, dt.Extent())
	dst := make([]byte, 4096)
	for _, skip := range []int64{0, dt.Size() / 2, dt.Size() - 8192} {
		b.Run(fmt.Sprintf("skip=%d", skip), func(b *testing.B) {
			b.SetBytes(4096)
			for i := 0; i < b.N; i++ {
				PackCount(dst, src, 1, dt, skip)
			}
		})
	}
}

func BenchmarkStartPos(b *testing.B) {
	dt := benchType(b, 8)
	offs := make([]int64, 1024)
	r := rand.New(rand.NewSource(7))
	for i := range offs {
		offs[i] = r.Int63n(dt.Size())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StartPos(dt, offs[i%len(offs)])
	}
}

// BenchmarkBufToData: buffer offset -> data offset on a regular vector
// and on a monotone irregular Hindexed of 32768 blocks (the benchmark's
// irr geometry); the two should differ by search steps, not by the block
// count.
func BenchmarkBufToData(b *testing.B) {
	for _, c := range []struct {
		name string
		dt   *datatype.Type
	}{
		{"vector", benchType(b, 8)},
		{"irregular-32k", monotoneHindexed(b, 1<<15)},
	} {
		b.Run(c.name, func(b *testing.B) {
			offs := make([]int64, 1024)
			r := rand.New(rand.NewSource(9))
			for i := range offs {
				offs[i] = r.Int63n(c.dt.Extent())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				BufToData(c.dt, offs[i%len(offs)])
			}
		})
	}
}

func BenchmarkTypeSizeExtentPair(b *testing.B) {
	dt := benchType(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext := TypeExtent(dt, int64(i%4096), 8192)
		TypeSize(dt, int64(i%4096), ext)
	}
}

// BenchmarkDeepTree checks that navigation stays fast on deep trees.
func BenchmarkDeepTree(b *testing.B) {
	dt := datatype.Double
	var err error
	for d := 0; d < 8; d++ {
		if dt, err = datatype.Vector(4, 2, 3, dt); err != nil {
			b.Fatal(err)
		}
	}
	size := dt.Size()
	b.Run("StartPos", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			StartPos(dt, int64(i)%size)
		}
	})
	b.Run("list-based-reference", func(b *testing.B) {
		v := flatten.NewView(0, dt)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.DataToFile(int64(i) % size)
		}
	})
}
