package storage

import "fmt"

// Region presents a fixed window [off, off+size) of a larger backend as
// a Backend of its own.  The session service uses it to hand several
// concurrent sessions disjoint slices of one shared store (one striped
// I/O-server tier serving many open files): each session addresses its
// region from zero, and the region translates to the global offsets.
//
// A region never shrinks the shared store — Truncate grows the inner
// backend when the region's logical end moves past it and is otherwise
// a no-op, since shrinking would destroy the neighbouring regions'
// bytes.  Reads and writes past the region's end are refused rather
// than silently clipped, so a misconfigured session fails loudly
// instead of corrupting its neighbour.
//
// Region is not a pass-through wrapper and stands outside the seam
// (seam.go): it translates offsets, and the extensions it lacks it lacks
// on purpose.  It keeps Vectored; it hides ViewBackend, whose data
// offsets it could not translate; and it hides EpochBackend, which is
// what keeps per-session regions out of the tier-global epoch — one
// session's commit would otherwise apply, or its abort discard, what its
// neighbours had staged (ROADMAP item 2(f) owns removing that limit).
type Region struct {
	b    Backend
	off  int64
	size int64
}

// NewRegion wraps bytes [off, off+size) of b.
func NewRegion(b Backend, off, size int64) (*Region, error) {
	if off < 0 || size <= 0 {
		return nil, fmt.Errorf("storage: invalid region [%d, %d+%d)", off, off, size)
	}
	return &Region{b: b, off: off, size: size}, nil
}

// check validates that [off, off+n) stays inside the region.
func (r *Region) check(off int64, n int) error {
	if off < 0 {
		return fmt.Errorf("storage: negative offset %d", off)
	}
	if off+int64(n) > r.size {
		return fmt.Errorf("storage: access [%d, %d) exceeds region size %d: %w",
			off, off+int64(n), r.size, ErrPermanent)
	}
	return nil
}

// ReadAt implements io.ReaderAt within the region.  EOF semantics follow
// the region's logical size: the region's bytes past the inner store's
// end read as a short read, like any Backend.
func (r *Region) ReadAt(p []byte, off int64) (int, error) {
	if err := r.check(off, len(p)); err != nil {
		return 0, err
	}
	return r.b.ReadAt(p, r.off+off)
}

// WriteAt implements io.WriterAt within the region.
func (r *Region) WriteAt(p []byte, off int64) (int, error) {
	if err := r.check(off, len(p)); err != nil {
		return 0, err
	}
	return r.b.WriteAt(p, r.off+off)
}

// ReadAtv implements Vectored with per-segment translation.
func (r *Region) ReadAtv(segs []Segment) error {
	shifted, err := r.shift(segs)
	if err != nil {
		return err
	}
	return ReadAtv(r.b, shifted)
}

// WriteAtv implements Vectored with per-segment translation.
func (r *Region) WriteAtv(segs []Segment) error {
	shifted, err := r.shift(segs)
	if err != nil {
		return err
	}
	return WriteAtv(r.b, shifted)
}

func (r *Region) shift(segs []Segment) ([]Segment, error) {
	shifted := make([]Segment, len(segs))
	for i, s := range segs {
		if err := r.check(s.Off, len(s.Buf)); err != nil {
			return nil, err
		}
		shifted[i] = Segment{Off: r.off + s.Off, Buf: s.Buf}
	}
	return shifted, nil
}

// Size implements Backend: how much of the region the inner store
// currently covers, clamped to [0, size].
func (r *Region) Size() int64 {
	n := r.b.Size() - r.off
	if n < 0 {
		return 0
	}
	if n > r.size {
		return r.size
	}
	return n
}

// Truncate implements Backend, grow-only: extending the region's logical
// length grows the shared store to cover it; shrink requests are no-ops
// (the store is shared — reclaiming would zero a neighbour's future
// growth path, and the region's own reads already clamp to size).
func (r *Region) Truncate(n int64) error {
	if n < 0 {
		return fmt.Errorf("storage: negative truncate %d", n)
	}
	if n > r.size {
		return fmt.Errorf("storage: truncate %d exceeds region size %d: %w", n, r.size, ErrPermanent)
	}
	if r.off+n > r.b.Size() {
		return r.b.Truncate(r.off + n)
	}
	return nil
}

// Sync implements Backend.
func (r *Region) Sync() error { return r.b.Sync() }
