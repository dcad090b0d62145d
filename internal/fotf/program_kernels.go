package fotf

import (
	"fmt"
	"math/bits"
	"unsafe"
)

// The copy kernel.  Every strided copy in the package — the program's
// groups, the walk's groups and the fused typed-to-typed copy — ends in
// kernRuns, the package's stand-in for the SX gather/scatter units.  It
// proves once per call that every run it names lies inside both slices,
// and then moves the runs without a bounds check each: as fixed-size
// array copies at the element widths that dominate scientific datatypes
// (1, 2, 4 and 8 bytes, and 16 for small structs), one memmove per run
// at every other width.  Memory is addressed as a base
// pointer plus an integer offset, and a pointer is formed only for a run
// the check covered, so no pointer ever leaves the slices.  A fused-copy
// plan's pieces (movePieces) are moved the same way, under the one check
// their plan makes per replay.  This is the package's only file that
// imports unsafe (TestUnsafeStaysInKernels).
//
// Callers hand it whole runs only — execGroup routes window-split
// partial runs through plain byte copies — so a run never reads or
// writes a byte outside its group.

// kernRuns moves k stretches of q whole runs of bl bytes from src to
// dst: within a stretch consecutive runs lie sstride apart in src, from
// index so, and dstride apart in dst, from index do, and from the end of
// one stretch to the start of the next each side jumps a further swrap,
// respectively dwrap.  A contiguous side is one whose stride is bl.  A
// group of runs is one stretch; the fused copy takes many when the runs
// of one side are each cut into q runs of the other.
//
// A run outside either slice is a bug in the caller: kernRuns panics
// before moving a byte.
func kernRuns(dst []byte, do, dstride, dwrap int64, src []byte, so, sstride, swrap, bl, q, k int64) {
	if q <= 0 || k <= 0 {
		return
	}
	if !inside(int64(len(dst)), do, dstride, dwrap, bl, q, k) || !inside(int64(len(src)), so, sstride, swrap, bl, q, k) {
		panic(fmt.Sprintf("fotf: %d stretches of %d runs of %d bytes (dst %d+%d/%d, src %d+%d/%d) outside dst[%d] or src[%d]",
			k, q, bl, do, dstride, dwrap, so, sstride, swrap, len(dst), len(src)))
	}
	d, s := unsafe.Pointer(unsafe.SliceData(dst)), unsafe.Pointer(unsafe.SliceData(src))
	switch bl {
	case 1:
		widthRuns[[1]byte](d, do, dstride, dwrap, s, so, sstride, swrap, q, k)
	case 2:
		widthRuns[[2]byte](d, do, dstride, dwrap, s, so, sstride, swrap, q, k)
	case 4:
		widthRuns[[4]byte](d, do, dstride, dwrap, s, so, sstride, swrap, q, k)
	case 8:
		widthRuns[[8]byte](d, do, dstride, dwrap, s, so, sstride, swrap, q, k)
	case 16:
		widthRuns[[16]byte](d, do, dstride, dwrap, s, so, sstride, swrap, q, k)
	default:
		for ; k > 0; k-- {
			for i := q; i > 0; i-- {
				copy(unsafe.Slice((*byte)(unsafe.Add(d, do)), bl), unsafe.Slice((*byte)(unsafe.Add(s, so)), bl))
				do, so = do+dstride, so+sstride
			}
			do, so = do+dwrap, so+swrap
		}
	}
}

// widthRuns is kernRuns' loop for runs of one fixed width: k stretches of q
// array copies.  The offsets step past the last run, but no pointer is
// formed from them.
func widthRuns[W [1]byte | [2]byte | [4]byte | [8]byte | [16]byte](d unsafe.Pointer, do, dstride, dwrap int64, s unsafe.Pointer, so, sstride, swrap, q, k int64) {
	for ; k > 0; k-- {
		for i := q; i > 0; i-- {
			*(*W)(unsafe.Add(d, do)) = *(*W)(unsafe.Add(s, so))
			do, so = do+dstride, so+sstride
		}
		do, so = do+dwrap, so+swrap
	}
}

// inside reports whether all k*q runs of bl bytes at
// o + j*(q*stride+wrap) + i*stride, 0 <= j < k, 0 <= i < q, lie in
// [0, size).  kernRuns steps to exactly these offsets, in wrapping
// int64 arithmetic, so the stretch step is taken wrapped too.  The
// offsets are affine in (j, i), so the extreme runs are corners; reach
// keeps every product within size, so none of the sums below wraps.
func inside(size, o, stride, wrap, bl, q, k int64) bool {
	if bl <= 0 || o < 0 || o > size-bl {
		return false
	}
	ilo, ihi, ok := reach(stride, q, size)
	if !ok {
		return false
	}
	jlo, jhi, ok := reach(q*stride+wrap, k, size)
	return ok && o+ilo+jlo >= 0 && o+ihi+jhi <= size-bl
}

// reach returns the least and greatest of i*step over 0 <= i < count, or
// false when they lie more than size apart.
func reach(step, count, size int64) (lo, hi int64, ok bool) {
	if count <= 1 || step == 0 {
		return 0, 0, true
	}
	a := uint64(step)
	if step < 0 {
		a = -a
	}
	if over, span := bits.Mul64(uint64(count-1), a); over != 0 || span > uint64(size) {
		return 0, 0, false
	}
	d := (count - 1) * step
	return min(d, 0), max(d, 0), true
}

// movePieces moves a fused-copy plan's pieces in order, each from src[so]
// to dst[do] — or, back set, from dst[do] to src[so] — one memmove a
// piece and no bounds check: the caller (FusedPlan.replay) has checked
// that every piece of the plan lies inside both slices.
func movePieces(dst, src []byte, ps []planPiece, back bool) {
	d, s := unsafe.Pointer(unsafe.SliceData(dst)), unsafe.Pointer(unsafe.SliceData(src))
	if back {
		for _, p := range ps {
			copy(unsafe.Slice((*byte)(unsafe.Add(s, p.so)), p.ln), unsafe.Slice((*byte)(unsafe.Add(d, p.do)), p.ln))
		}
		return
	}
	for _, p := range ps {
		copy(unsafe.Slice((*byte)(unsafe.Add(d, p.do)), p.ln), unsafe.Slice((*byte)(unsafe.Add(s, p.so)), p.ln))
	}
}
