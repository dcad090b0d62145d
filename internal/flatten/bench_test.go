package flatten

import (
	"fmt"
	"testing"

	"repro/internal/datatype"
)

// Micro-benchmarks quantifying the list-based overheads of §2.4: list
// construction, storage-driven copies, positioning and merging.

func benchVector(b *testing.B, nblock int64) *datatype.Type {
	b.Helper()
	dt, err := datatype.Hvector(nblock, 8, 16, datatype.Byte)
	if err != nil {
		b.Fatal(err)
	}
	return dt
}

func BenchmarkFlatten(b *testing.B) {
	for _, nblock := range []int64{256, 16384, 1 << 20} {
		dt := benchVector(b, nblock)
		b.Run(fmt.Sprintf("Nblock=%d", nblock), func(b *testing.B) {
			b.ReportMetric(float64(nblock*TupleBytes), "list-bytes")
			for i := 0; i < b.N; i++ {
				if l := Flatten(dt); len(l) != int(nblock) {
					b.Fatal("bad list")
				}
			}
		})
	}
}

func BenchmarkPackList(b *testing.B) {
	dt := benchVector(b, 1<<17)
	l := Flatten(dt)
	src := make([]byte, dt.Extent())
	dst := make([]byte, dt.Size())
	b.SetBytes(dt.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PackList(dst, src, l, dt.Extent(), 1, 0, dt.Size())
	}
}

func BenchmarkDataToFileLinear(b *testing.B) {
	// The O(N_block/2) positioning cost: locate the middle of the view.
	for _, nblock := range []int64{256, 16384, 1 << 17} {
		dt := benchVector(b, nblock)
		v := newView(0, dt)
		mid := dt.Size() / 2
		b.Run(fmt.Sprintf("Nblock=%d", nblock), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v.DataToFile(mid)
			}
		})
	}
}

func BenchmarkEachInRange(b *testing.B) {
	// Building a per-IOP access list: O(S_access/S_extent · N_block).
	dt := benchVector(b, 4096)
	v := newView(0, dt)
	span := 4 * dt.Extent()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		v.EachInRange(0, span, func(_, _, _ int64) { n++ })
		if n == 0 {
			b.Fatal("empty range")
		}
	}
}

func BenchmarkMerge(b *testing.B) {
	// The collective write optimization's list merge.
	const parts, per = 8, 4096
	lists := make([]List, parts)
	for p := range lists {
		l := make(List, per)
		for i := range l {
			l[i] = Segment{Off: int64(i*parts+p) * 8, Len: 8}
		}
		lists[p] = l
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := Merge(lists...)
		if !m.Covers(0, parts*per*8) {
			b.Fatal("merge lost coverage")
		}
	}
}
