package main

import "time"

// The reference kernel: the flat pack of a rank's own memory layout.
//
// The sandbox's speed moves by up to 40 % for minutes at a time, and by
// different amounts for copy loops over small blocks and over large ones
// (README.md, "Noise method"), so a bandwidth in MB/s cannot be held to
// a tenth.  What can is a bandwidth relative to a kernel of the same
// instruction mix timed right before and right after the op: the stack
// and the kernel slow down together.  The kernel packs the data runs of
// the rank's memory type, as (*datatype.Type).Walk lists them, from the
// user buffer into a contiguous scratch buffer with one copy per run — no
// engine code, 8-byte copies on vec8, 16 KiB copies on vec16k.

const (
	refPrefix = 256 << 10 // data bytes of the memory type one pass packs
	refPasses = 4         // passes per timing: 1 MiB, some 0.1 to 0.3 ms
)

type refRun struct{ off, n int64 }

type reference struct {
	runs []refRun // the first refPrefix data bytes of the memory type, adjacent runs merged
	dst  []byte
}

func newReference(g geometry) *reference {
	ref := &reference{}
	var total int64
	eachRun(g.mtype, g.count, func(off, n int64) {
		n = min(n, refPrefix-total)
		if n == 0 {
			return
		}
		total += n
		if k := len(ref.runs); k > 0 && ref.runs[k-1].off+ref.runs[k-1].n == off {
			ref.runs[k-1].n += n
			return
		}
		ref.runs = append(ref.runs, refRun{off, n})
	})
	ref.dst = make([]byte, total)
	return ref
}

// bytes is the data one timing packs.
func (ref *reference) bytes() int64 { return refPasses * int64(len(ref.dst)) }

// time packs the prefix refPasses times from buf and returns the
// nanoseconds it took.
func (ref *reference) time(buf []byte) float64 {
	t0 := time.Now()
	for pass := 0; pass < refPasses; pass++ {
		dst := ref.dst
		for _, r := range ref.runs {
			dst = dst[copy(dst, buf[r.off:r.off+r.n]):]
		}
	}
	return float64(time.Since(t0).Nanoseconds())
}
