package datatype

import (
	"testing"
)

func BenchmarkConstructVector(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Vector(1<<16, 1, 2, Double); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConstructSubarray3D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := Subarray(
			[]int64{128, 128, 128}, []int64{32, 32, 32}, []int64{16, 16, 16},
			OrderFortran, Double)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	sub, err := Subarray(
		[]int64{128, 128, 128}, []int64{32, 32, 32}, []int64{16, 16, 16},
		OrderFortran, Double)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			appendType(nil, sub) // the encoder; Encode memoizes per type
		}
	})
	enc := Encode(sub)
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Decode(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkWalk(b *testing.B) {
	dt, err := Vector(1<<16, 1, 2, Double)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int64
		dt.Walk(func(off, ln int64) { n += ln })
		if n != dt.Size() {
			b.Fatal("bad walk")
		}
	}
}
