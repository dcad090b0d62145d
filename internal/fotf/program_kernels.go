package fotf

import "encoding/binary"

// Copy kernels.  Each compiled group carries the kernel matching its
// run width, chosen once at compile time: fixed-width loads/stores for
// the element sizes that dominate scientific datatypes (8/16/32/64-bit,
// plus a 128-bit pair for small structs) and a generic memmove loop for
// everything else.  Kernels only ever see whole runs — execGroup routes
// window-split partial runs through plain byte copies — so a width
// kernel never reads or writes a single byte outside its group.
const (
	kernMove = uint8(iota) // generic: one memmove per run
	kern8                  // 1-byte runs
	kern16                 // 2-byte runs
	kern32                 // 4-byte runs
	kern64                 // 8-byte runs
	kern128                // 16-byte runs
)

// kernelFor selects the copy kernel for runs of blocklen bytes.
func kernelFor(blocklen int64) uint8 {
	switch blocklen {
	case 1:
		return kern8
	case 2:
		return kern16
	case 4:
		return kern32
	case 8:
		return kern64
	case 16:
		return kern128
	}
	return kernMove
}

// kernExec moves n whole runs of bl bytes between the contiguous buffer
// c (run i at c[i*bl]) and the typed buffer b (run i at b[off+i*stride])
// through the compile-selected kernel.  pack=true copies b→c.
func kernExec(kern uint8, c, b []byte, off, bl, stride, n int64, pack bool) {
	switch kern {
	case kern8:
		if pack {
			for i := int64(0); i < n; i++ {
				c[i] = b[off+i*stride]
			}
		} else {
			for i := int64(0); i < n; i++ {
				b[off+i*stride] = c[i]
			}
		}
	case kern16:
		if pack {
			for i := int64(0); i < n; i++ {
				binary.LittleEndian.PutUint16(c[i*2:], binary.LittleEndian.Uint16(b[off+i*stride:]))
			}
		} else {
			for i := int64(0); i < n; i++ {
				binary.LittleEndian.PutUint16(b[off+i*stride:], binary.LittleEndian.Uint16(c[i*2:]))
			}
		}
	case kern32:
		if pack {
			for i := int64(0); i < n; i++ {
				binary.LittleEndian.PutUint32(c[i*4:], binary.LittleEndian.Uint32(b[off+i*stride:]))
			}
		} else {
			for i := int64(0); i < n; i++ {
				binary.LittleEndian.PutUint32(b[off+i*stride:], binary.LittleEndian.Uint32(c[i*4:]))
			}
		}
	case kern64:
		if pack {
			for i := int64(0); i < n; i++ {
				binary.LittleEndian.PutUint64(c[i*8:], binary.LittleEndian.Uint64(b[off+i*stride:]))
			}
		} else {
			for i := int64(0); i < n; i++ {
				binary.LittleEndian.PutUint64(b[off+i*stride:], binary.LittleEndian.Uint64(c[i*8:]))
			}
		}
	case kern128:
		if pack {
			for i := int64(0); i < n; i++ {
				s := b[off+i*stride:]
				binary.LittleEndian.PutUint64(c[i*16:], binary.LittleEndian.Uint64(s))
				binary.LittleEndian.PutUint64(c[i*16+8:], binary.LittleEndian.Uint64(s[8:]))
			}
		} else {
			for i := int64(0); i < n; i++ {
				d := b[off+i*stride:]
				binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(c[i*16:]))
				binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(c[i*16+8:]))
			}
		}
	default:
		if pack {
			for i := int64(0); i < n; i++ {
				copy(c[i*bl:(i+1)*bl], b[off+i*stride:])
			}
		} else {
			for i := int64(0); i < n; i++ {
				copy(b[off+i*stride:off+i*stride+bl], c[i*bl:])
			}
		}
	}
}

// kernRuns moves n whole runs of bl bytes between two typed buffers, in
// stretches of q (n is a multiple of q): within a stretch consecutive
// runs lie sstride apart in src, from index so, and dstride apart in dst,
// from index do, and from the end of one stretch to the start of the next
// each side jumps a further swrap, respectively dwrap.  It is the
// strided-to-strided counterpart of kernExec for the fused copy: one
// stretch (q == n) when the two groups agree on the run length, and many
// when the runs of one side are each cut into q runs of the other.
func kernRuns(kern uint8, dst []byte, do, dstride, dwrap int64, src []byte, so, sstride, swrap, bl, q, n int64) {
	for ; n > 0; n -= q {
		switch kern {
		case kern8:
			for i := q; i > 0; i-- {
				dst[do] = src[so]
				do, so = do+dstride, so+sstride
			}
		case kern16:
			for i := q; i > 0; i-- {
				binary.LittleEndian.PutUint16(dst[do:], binary.LittleEndian.Uint16(src[so:]))
				do, so = do+dstride, so+sstride
			}
		case kern32:
			for i := q; i > 0; i-- {
				binary.LittleEndian.PutUint32(dst[do:], binary.LittleEndian.Uint32(src[so:]))
				do, so = do+dstride, so+sstride
			}
		case kern64:
			for i := q; i > 0; i-- {
				binary.LittleEndian.PutUint64(dst[do:], binary.LittleEndian.Uint64(src[so:]))
				do, so = do+dstride, so+sstride
			}
		case kern128:
			for i := q; i > 0; i-- {
				s, d := src[so:], dst[do:]
				binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(s))
				binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(s[8:]))
				do, so = do+dstride, so+sstride
			}
		default:
			for i := q; i > 0; i-- {
				copy(dst[do:do+bl], src[so:])
				do, so = do+dstride, so+sstride
			}
		}
		do, so = do+dwrap, so+swrap
	}
}
