package storage

import (
	"fmt"
	"os"
)

// Segment is one contiguous piece of a vectored access (Backend.ReadAtv,
// Backend.WriteAtv).
type Segment struct {
	Off int64
	Buf []byte
}

// ReadAtv is b.ReadAtv(segs).
func ReadAtv(b Backend, segs []Segment) error { return b.ReadAtv(segs) }

// WriteAtv is b.WriteAtv(segs).
func WriteAtv(b Backend, segs []Segment) error { return b.WriteAtv(segs) }

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

// ReadAtv implements Backend for Mem: the whole batch is one
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

// WriteAtv implements Backend for Mem: one access like
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
