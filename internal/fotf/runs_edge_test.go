package fotf

import (
	"testing"

	"repro/internal/datatype"
	"repro/internal/flatten"
)

// Boundary audit of the run enumerators (satellite of the program
// layer): for windows straddling block and element boundaries at
// non-unit element widths, both the recursive walk and the compiled
// program must (a) map every data byte to the ol-list oracle's buffer
// offset, and (b) never emit a window-split partial run inside an n>1
// group — partial runs must come out as single (n==1) runs, because
// n>1 groups feed the copy kernel, which copies whole runs only.  Every
// (d0, d1) pair over two tiled instances is exercised.

// flatOffsets expands the flattened ol-list into the buffer offset of
// every data byte in [0, total), the independent oracle.
func flatOffsets(dt *datatype.Type, total int64) []int64 {
	l := flatten.Flatten(dt)
	out := make([]int64, total)
	d := int64(0)
	for k := int64(0); d < total; k++ {
		base := k * dt.Extent()
		for _, seg := range l {
			for j := int64(0); j < seg.Len && d < total; j++ {
				out[d] = base + seg.Off + j
				d++
			}
		}
	}
	return out
}

func TestRunsWindowStraddle(t *testing.T) {
	contig := func(count int64, child *datatype.Type) *datatype.Type {
		t.Helper()
		out, err := datatype.Contiguous(count, child)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	indexed := func(blocklens, displs []int64, child *datatype.Type) *datatype.Type {
		t.Helper()
		bytes := make([]int64, len(displs))
		for i, d := range displs {
			bytes[i] = d * child.Extent()
		}
		out, err := datatype.Hindexed(blocklens, bytes, child)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	cases := []struct {
		name string
		dt   *datatype.Type
		w    int64 // element width n>1 runs must respect; 0 = containment only
	}{
		{"int16-vector", vec(t, 3, 2, 5, datatype.Int16), 2},
		{"int32-vector", vec(t, 3, 2, 5, datatype.Int32), 4},
		{"double-vector", vec(t, 4, 2, 3, datatype.Double), 8},
		{"pair-vector", vec(t, 3, 1, 2, contig(2, datatype.Double)), 16},
		{"nested-vector", vec(t, 2, 2, 3, vec(t, 2, 1, 2, datatype.Int32)), 4},
		{"irregular-indexed", indexed([]int64{2, 1, 3}, []int64{0, 3, 5}, datatype.Int32), 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			size := c.dt.Size()
			total := 2 * size // straddle the tiling boundary too
			oracle := flatOffsets(c.dt, total)
			p := Compile(c.dt)
			if p == nil {
				t.Fatal("Compile declined")
			}
			enums := []struct {
				name string
				run  func(d0, d1 int64, emit EmitFunc)
			}{
				{"walk", func(d0, d1 int64, emit EmitFunc) { Runs(c.dt, d0, d1, emit) }},
				{"program", p.Runs},
			}
			for _, e := range enums {
				for d0 := int64(0); d0 < total; d0++ {
					for d1 := d0 + 1; d1 <= total; d1++ {
						m, err := coverage(d0, d1, func(emit EmitFunc) {
							e.run(d0, d1, func(bufOff, dataOff, runLen, stride, n int64) {
								if n > 1 {
									if dataOff < d0 || dataOff+n*runLen > d1 {
										t.Fatalf("%s [%d,%d): n=%d group [%d,%d) leaks outside the window",
											e.name, d0, d1, n, dataOff, dataOff+n*runLen)
									}
									if c.w != 0 && (runLen%c.w != 0 || dataOff%c.w != 0) {
										t.Fatalf("%s [%d,%d): n=%d group at data %d with runLen %d splits a %d-byte element",
											e.name, d0, d1, n, dataOff, runLen, c.w)
									}
								}
								emit(bufOff, dataOff, runLen, stride, n)
							})
						})
						if err != nil {
							t.Fatalf("%s [%d,%d): %v", e.name, d0, d1, err)
						}
						for i, off := range m {
							if off != oracle[d0+int64(i)] {
								t.Fatalf("%s [%d,%d): data byte %d at buf %d, oracle %d",
									e.name, d0, d1, d0+int64(i), off, oracle[d0+int64(i)])
							}
						}
					}
				}
			}
		})
	}
}
