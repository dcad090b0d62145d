package main

import (
	"bytes"

	"repro/internal/datatype"
)

// The flat oracle.  Everything here derives expected bytes from the
// datatypes with (*datatype.Type).Walk alone — no engine code — so a bug
// shared by the walk, the programs and the engines cannot hide itself.

// eachRun calls fn for every contiguous data run of count instances of t
// laid out from buffer offset 0, in type-map order.
func eachRun(t *datatype.Type, count int64, fn func(off, n int64)) {
	ext := t.Extent()
	for k := int64(0); k < count; k++ {
		base := k * ext
		t.Walk(func(off, n int64) { fn(base+off, n) })
	}
}

// fillData writes a seeded byte stream into the data positions of buf and
// leaves the gaps zero.
func fillData(buf []byte, g geometry, seed int64, rank int) {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(rank+1)*0xBF58476D1CE4E5B9
	eachRun(g.mtype, g.count, func(off, n int64) {
		for i := off; i < off+n; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[i] = byte(x >> 32)
		}
	})
}

// restamp XORs every data byte of buf with mask, so that each round
// writes bytes no earlier round left in the file.
func restamp(buf []byte, g geometry, mask byte) {
	eachRun(g.mtype, g.count, func(off, n int64) {
		run := buf[off : off+n]
		for i := range run {
			run[i] ^= mask
		}
	})
}

// sameData reports whether got holds want's bytes at every data position
// of g's memory type — the check of a read-back buffer.
func sameData(got, want []byte, g geometry) bool {
	ok := true
	eachRun(g.mtype, g.count, func(off, n int64) {
		if ok && !bytes.Equal(got[off:off+n], want[off:off+n]) {
			ok = false
		}
	})
	return ok
}

// paintImage writes the file bytes a rank's write must produce into img:
// the rank's data, in memory type-map order, laid along the runs of one
// instance of its filetype from its displacement.  scratch is reused for
// the packed data and returned, so that repeated checks leave no garbage.
func paintImage(img, buf []byte, g geometry, scratch []byte) []byte {
	packed := scratch[:0]
	eachRun(g.mtype, g.count, func(off, n int64) {
		packed = append(packed, buf[off:off+n]...)
	})
	rest := packed
	g.ftype.Walk(func(off, n int64) {
		copy(img[g.disp+off:g.disp+off+n], rest[:n])
		rest = rest[n:]
	})
	return packed
}
