package storage

import (
	"fmt"
	"os"
)

// Vectored (scatter/gather) access.  A non-contiguous access that has
// resolved to a set of (offset, buffer) pieces can be issued as one
// batched call instead of one backend call per piece — on unix files
// this maps to preadv(2)/pwritev(2), on Mem to a single atomic access,
// and everywhere else to a plain loop.  The helpers
// ReadAtv/WriteAtv pick the best available path for any Backend, so
// callers never branch on capability.

// Segment is one contiguous piece of a vectored access.
type Segment struct {
	Off int64
	Buf []byte
}

// Vectored is the optional scatter/gather extension of Backend.
// ReadAtv follows ReadFull semantics per segment: bytes past the end of
// the store read as zeros, and only real errors are returned.  WriteAtv
// writes every segment, extending the store as needed, in batch order:
// where two segments overlap the later one wins.  Segments must be
// pre-sorted by offset if the caller wants adjacent ones batched, but
// correctness does not require any ordering.
type Vectored interface {
	ReadAtv(segs []Segment) error
	WriteAtv(segs []Segment) error
}

// ReadAtv reads every segment from b, zero-filling past EOF, using the
// backend's native vectored path when it has one.
func ReadAtv(b Backend, segs []Segment) error {
	if v, ok := b.(Vectored); ok {
		return v.ReadAtv(segs)
	}
	for _, s := range segs {
		if err := ReadFull(b, s.Buf, s.Off); err != nil {
			return err
		}
	}
	return nil
}

// WriteAtv writes every segment to b, using the backend's native
// vectored path when it has one.
func WriteAtv(b Backend, segs []Segment) error {
	if v, ok := b.(Vectored); ok {
		return v.WriteAtv(segs)
	}
	for _, s := range segs {
		if _, err := b.WriteAt(s.Buf, s.Off); err != nil {
			return err
		}
	}
	return nil
}

// PageSize is the granule of PageDense.
var PageSize = int64(os.Getpagesize())

// PageDense is the rule that decides between a vectored call and a
// window for runs pieces that carry useful bytes over a file range of
// span bytes — one definition for everyone who has both ways to move
// them (the I/O servers' sieve, the collective window loop).  The pieces
// are dense when they leave gaps (useful < span) and their mean pitch
// span/runs is at most a page: the file system touches every page of the
// span anyway, so one read or write of the span and copies in memory
// beat a list entry per piece.  8 B every 1 KiB qualifies; 16 KiB every
// 32 KiB does not (a window would double the traffic to save nothing),
// nor do adjacent pieces of any size (one vectored call already moves
// them).  The rule needs runs only up to ceil(span/PageSize): any count
// at or beyond that gives the same answer.
func PageDense(span, useful, runs int64) bool {
	return useful < span && span <= runs*PageSize
}

// segsLen sums the byte count of a segment batch.
func segsLen(segs []Segment) int64 {
	var n int64
	for _, s := range segs {
		n += int64(len(s.Buf))
	}
	return n
}

// SegsSpan reports the file range [lo, hi) a batch touches (0,0 when
// empty).
func SegsSpan(segs []Segment) (lo, hi int64) {
	for i, s := range segs {
		end := s.Off + int64(len(s.Buf))
		if i == 0 || s.Off < lo {
			lo = s.Off
		}
		if end > hi {
			hi = end
		}
	}
	return lo, hi
}

// ReadAtv implements Vectored natively for Mem: the whole batch is one
// access — one set of region locks over its span, taken before the first
// segment is filled.
func (m *Mem) ReadAtv(segs []Segment) error {
	for _, s := range segs {
		if s.Off < 0 {
			return fmt.Errorf("storage: negative offset %d", s.Off)
		}
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	size := int64(len(m.data))
	lo, hi := SegsSpan(segs)
	r0, r1 := m.lockSpan(lo, min(hi, size), false)
	for _, s := range segs {
		var n int
		if s.Off < size {
			n = copy(s.Buf, m.data[s.Off:])
		}
		clear(s.Buf[n:])
	}
	m.unlockSpan(r0, r1, false)
	return nil
}

// WriteAtv implements Vectored natively for Mem: one access like
// ReadAtv, after one grow to the batch's maximum extent when it reaches
// past the end.
func (m *Mem) WriteAtv(segs []Segment) error {
	for _, s := range segs {
		if s.Off < 0 {
			return fmt.Errorf("storage: negative offset %d", s.Off)
		}
		if err := memFits(s.Off, int64(len(s.Buf))); err != nil {
			return err
		}
	}
	lo, hi := SegsSpan(segs)
	m.mu.RLock()
	if hi <= int64(len(m.data)) {
		r0, r1 := m.lockSpan(lo, hi, true)
		m.copySegs(segs)
		m.unlockSpan(r0, r1, true)
		m.mu.RUnlock()
		return nil
	}
	m.mu.RUnlock()
	// The batch extends the store: it changes the header, so it runs
	// alone.  (Another call may have grown the store in between; alone is
	// still correct.)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.growTo(hi)
	m.copySegs(segs)
	return nil
}

func (m *Mem) copySegs(segs []Segment) {
	for _, s := range segs {
		copy(m.data[s.Off:], s.Buf)
	}
}
