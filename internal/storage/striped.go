package storage

import (
	"fmt"
	"io"
)

// Striped distributes a byte range round-robin over several backends in
// fixed-size stripe units (RAID-0 style) — a model of the striped
// storage systems the paper's §4.2 points to for scaling accumulated
// bandwidth with the number of processes.  The offset mapping lives in
// StripeGeom, shared with the networked I/O-server tier (a Striped over
// remote stripe clients is that tier's in-process prototype).
type Striped struct {
	stripes []Backend
	geom    StripeGeom
}

// NewStriped stripes over the given backends with the given unit size.
func NewStriped(unit int64, stripes ...Backend) (*Striped, error) {
	g := StripeGeom{Unit: unit, Count: len(stripes)}
	if err := g.Validate(); err != nil {
		if len(stripes) == 0 {
			return nil, fmt.Errorf("storage: no stripe backends")
		}
		return nil, err
	}
	return &Striped{stripes: stripes, geom: g}, nil
}

// Geom reports the striping layout.
func (s *Striped) Geom() StripeGeom { return s.geom }

// each splits [off, off+n) into per-stripe contiguous pieces and calls
// fn for each, stopping at the first error.
func (s *Striped) each(off, n int64, fn func(b Backend, localOff int64, lo, hi int64) error) error {
	return s.geom.Each(off, n, func(stripe int, localOff, lo, hi int64) error {
		return fn(s.stripes[stripe], localOff, lo, hi)
	})
}

// ReadAt implements io.ReaderAt.  Missing bytes in any stripe read as
// zeros; a Striped store never reports EOF mid-range (its Size is the
// authoritative bound, as for the other backends zero-fill handling is
// done by ReadFull).
func (s *Striped) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("storage: negative offset %d", off)
	}
	size := s.Size()
	if off >= size {
		return 0, io.EOF
	}
	n := int64(len(p))
	short := false
	if off+n > size {
		n = size - off
		short = true
	}
	err := s.each(off, n, func(b Backend, localOff, lo, hi int64) error {
		return ReadFull(b, p[lo:hi], localOff)
	})
	if err != nil {
		return 0, err
	}
	if short {
		return int(n), io.EOF
	}
	return int(n), nil
}

// WriteAt implements io.WriterAt.
func (s *Striped) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("storage: negative offset %d", off)
	}
	err := s.each(off, int64(len(p)), func(b Backend, localOff, lo, hi int64) error {
		_, werr := b.WriteAt(p[lo:hi], localOff)
		return werr
	})
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

// ReadAtv implements Vectored: the batch is regrouped per stripe and
// issued as one vectored call per member backend — n noncontiguous runs
// cost at most Count backend batches, not n accesses.  Per the Vectored
// contract each piece zero-fills past its stripe's EOF.
func (s *Striped) ReadAtv(segs []Segment) error {
	bySrv, err := SplitSegs(s.geom, segs)
	if err != nil {
		return err
	}
	for i, sub := range bySrv {
		if len(sub) == 0 {
			continue
		}
		if err := ReadAtv(s.stripes[i], sub); err != nil {
			return err
		}
	}
	return nil
}

// WriteAtv implements Vectored, regrouped per stripe like ReadAtv.
func (s *Striped) WriteAtv(segs []Segment) error {
	bySrv, err := SplitSegs(s.geom, segs)
	if err != nil {
		return err
	}
	for i, sub := range bySrv {
		if len(sub) == 0 {
			continue
		}
		if err := WriteAtv(s.stripes[i], sub); err != nil {
			return err
		}
	}
	return nil
}

// Size reports the logical size: the maximum global offset any stripe's
// content reaches.
func (s *Striped) Size() int64 {
	var max int64
	for i, b := range s.stripes {
		if global := s.geom.GlobalLen(b.Size(), i); global > max {
			max = global
		}
	}
	return max
}

// Truncate implements Backend by sizing every stripe to cover n bytes.
func (s *Striped) Truncate(n int64) error {
	if n < 0 {
		return fmt.Errorf("storage: negative truncate %d", n)
	}
	for i, b := range s.stripes {
		if err := b.Truncate(s.geom.LocalLen(n, i)); err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes every stripe.
func (s *Striped) Sync() error {
	for _, b := range s.stripes {
		if err := b.Sync(); err != nil {
			return err
		}
	}
	return nil
}
