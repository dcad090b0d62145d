package storage

import "fmt"

// Vectored (scatter/gather) access.  A non-contiguous access that has
// resolved to a set of (offset, buffer) pieces can be issued as one
// batched call instead of one backend call per piece — on unix files
// this maps to preadv(2)/pwritev(2), on Mem to a single lock
// acquisition, and everywhere else to a plain loop.  The helpers
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
// writes every segment, extending the store as needed.  Segments must
// be pre-sorted by offset if the caller wants adjacent ones batched,
// but correctness does not require any ordering.
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

// ReadAtv implements Vectored natively for Mem: the whole batch runs
// under one read lock.
func (m *Mem) ReadAtv(segs []Segment) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	size := int64(len(m.data))
	for _, s := range segs {
		if s.Off < 0 {
			return fmt.Errorf("storage: negative offset %d", s.Off)
		}
		var n int
		if s.Off < size {
			n = copy(s.Buf, m.data[s.Off:])
		}
		for i := n; i < len(s.Buf); i++ {
			s.Buf[i] = 0
		}
	}
	return nil
}

// WriteAtv implements Vectored natively for Mem: one lock, one grow to
// the batch's maximum extent, then plain copies.
func (m *Mem) WriteAtv(segs []Segment) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range segs {
		if s.Off < 0 {
			return fmt.Errorf("storage: negative offset %d", s.Off)
		}
		end := s.Off + int64(len(s.Buf))
		if end > int64(len(m.data)) {
			if end > int64(cap(m.data)) {
				grown := make([]byte, end, grow(cap(m.data), end))
				copy(grown, m.data)
				m.data = grown
			} else {
				m.data = m.data[:end]
			}
		}
		copy(m.data[s.Off:end], s.Buf)
	}
	return nil
}
