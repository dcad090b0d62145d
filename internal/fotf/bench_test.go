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

// BenchmarkPackProgram pairs the recursive walk against the compiled
// copy program on the windowed pack pattern of the collective hot path,
// over a shape whose blocks the walk cannot collapse (two-run blocks at
// a seamless pitch) — benchstat compares the program/walk sub-benchmarks
// in CI.
func BenchmarkPackProgram(b *testing.B) {
	twoRun, err := datatype.Vector(2, 1, 2, datatype.Double)
	if err != nil {
		b.Fatal(err)
	}
	dt, err := datatype.Hvector((1<<20)/twoRun.Size(), 1, 32, twoRun)
	if err != nil {
		b.Fatal(err)
	}
	prog := Compile(dt)
	if prog == nil {
		b.Fatal("Compile declined")
	}
	total := dt.Size()
	src := make([]byte, dt.TrueUB())
	dst := make([]byte, total)
	const win = 64 << 10
	b.Run("walk", func(b *testing.B) {
		b.SetBytes(total)
		for i := 0; i < b.N; i++ {
			for d0 := int64(0); d0 < total; d0 += win {
				d1 := min(d0+win, total)
				CopyRange(dst[d0:d1], src, dt, d0, d1, 0, true)
			}
		}
	})
	b.Run("program", func(b *testing.B) {
		b.SetBytes(total)
		var cur Cursor
		for i := 0; i < b.N; i++ {
			cur.Reset(prog)
			for d0 := int64(0); d0 < total; d0 += win {
				d1 := min(d0+win, total)
				cur.CopyRange(dst[d0:d1], src, d0, d1, 0, true)
			}
		}
	})
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

// BenchmarkFusedVsStaged pairs the fused typed-to-typed copy against the
// staged form it replaces — pack the source range into a contiguous
// buffer, unpack that over the destination range, a pack buffer (256 KiB,
// core's default) at a time — over 4 MiB of data in the shapes of the
// repository benchmark's nc-nc workloads: equal 8-byte runs (vec8,
// indep8), equal 16 KiB runs (vec16k), two irregular types of some 32 k
// groups each (irr), 8-byte runs into 64-byte runs, and two trains of
// short runs that never line up (20-byte runs into 12-byte runs).  Fused
// must be no slower on any row; benchstat compares the sub-benchmarks in
// CI.
func BenchmarkFusedVsStaged(b *testing.B) {
	const total = 4 << 20
	hv := func(blocklen, stride int64) *datatype.Type {
		dt, err := datatype.Hvector(total/blocklen, blocklen, stride, datatype.Byte)
		if err != nil {
			b.Fatal(err)
		}
		return dt
	}
	for _, c := range []struct {
		name   string
		dt, st *datatype.Type
	}{
		{"8Bx8B", hv(8, 16), hv(8, 16)},
		{"16Kx16K", hv(16384, 32768), hv(16384, 32768)},
		{"irrxirr", irregularHindexed(b, 1<<15, 1), irregularHindexed(b, 1<<15, 2)},
		{"8Bx64B", hv(64, 128), hv(8, 16)},
		{"20Bx12B", hv(12, 30), hv(20, 21)},
	} {
		dp, sp := Compile(c.dt), Compile(c.st)
		n := min(dp.Size(), sp.Size())
		dst := make([]byte, c.dt.TrueUB())
		src := make([]byte, c.st.TrueUB())
		b.Run(c.name+"/staged", func(b *testing.B) {
			const packBuf = 256 << 10
			pb := make([]byte, packBuf)
			b.SetBytes(n)
			for i := 0; i < b.N; i++ {
				var dc, sc Cursor
				dc.Reset(dp)
				sc.Reset(sp)
				for d0 := int64(0); d0 < n; d0 += packBuf {
					d1 := min(d0+packBuf, n)
					sc.CopyRange(pb[:d1-d0], src, d0, d1, 0, true)
					dc.CopyRange(pb[:d1-d0], dst, d0, d1, 0, false)
				}
			}
		})
		b.Run(c.name+"/fused", func(b *testing.B) {
			b.SetBytes(n)
			for i := 0; i < b.N; i++ {
				CopyFused(dst, dp, 0, 0, src, sp, 0, 0, n)
			}
		})
	}
}
