package storage

import "fmt"

// StripeGeom is the round-robin (RAID-0) striping layout of the
// networked I/O-server tier — a model of the striped storage systems
// the paper's §4.2 points to for scaling accumulated bandwidth with the
// number of processes: global byte g lives on stripe (g/Unit) mod
// Count, at local offset
// (g/Unit)/Count*Unit + g%Unit within that stripe's backing store.
// Keeping the mapping in one place guarantees that a client-side
// splitter and a server-side evaluator agree on which bytes belong to
// which stripe — the invariant every remote scatter/gather depends on.
type StripeGeom struct {
	Unit  int64 // stripe unit in bytes
	Count int   // number of stripes
}

// Validate reports whether the geometry is usable.
func (g StripeGeom) Validate() error {
	if g.Unit <= 0 {
		return fmt.Errorf("storage: stripe unit %d", g.Unit)
	}
	if g.Count <= 0 {
		return fmt.Errorf("storage: stripe count %d", g.Count)
	}
	return nil
}

// Locate maps a global offset to (stripe index, local offset within
// that stripe's backing store).
func (g StripeGeom) Locate(off int64) (int, int64) {
	unitIdx := off / g.Unit
	within := off - unitIdx*g.Unit
	stripe := int(unitIdx % int64(g.Count))
	row := unitIdx / int64(g.Count)
	return stripe, row*g.Unit + within
}

// Each splits the global range [off, off+n) into per-stripe contiguous
// pieces, in ascending global order, and calls fn for each with the
// owning stripe index, the piece's local offset, and the piece's
// sub-range [lo, hi) relative to off.  It stops at the first error.  A
// zero-length range invokes fn zero times.
func (g StripeGeom) Each(off, n int64, fn func(stripe int, localOff, lo, hi int64) error) error {
	for pos := off; pos < off+n; {
		stripe, local := g.Locate(pos)
		end := (pos/g.Unit + 1) * g.Unit
		if end > off+n {
			end = off + n
		}
		if err := fn(stripe, local, pos-off, end-off); err != nil {
			return err
		}
		pos = end
	}
	return nil
}

// LocalLen reports how many bytes of the global prefix [0, n) land on
// stripe i — stripe i's local length when the global length is n.
func (g StripeGeom) LocalLen(n int64, i int) int64 {
	if n <= 0 {
		return 0
	}
	last := n - 1
	row := last / (g.Unit * int64(g.Count))
	rem := last - row*g.Unit*int64(g.Count) // offset within the last row
	local := row * g.Unit
	stripeStart := int64(i) * g.Unit
	switch {
	case rem >= stripeStart+g.Unit:
		local += g.Unit
	case rem >= stripeStart:
		local += rem - stripeStart + 1
	}
	return local
}

// SplitSegs regroups a global segment batch into one local batch per
// stripe of g, splitting segments at stripe-unit boundaries.  The
// returned slice is indexed by stripe; stripes the batch never touches
// hold nil.  The I/O-server tier's client uses this to turn one global
// vectored access into one per server.
func SplitSegs(g StripeGeom, segs []Segment) ([][]Segment, error) {
	bySrv := make([][]Segment, g.Count)
	for _, seg := range segs {
		if seg.Off < 0 {
			return nil, fmt.Errorf("storage: negative offset %d", seg.Off)
		}
		err := g.Each(seg.Off, int64(len(seg.Buf)), func(stripe int, localOff, lo, hi int64) error {
			bySrv[stripe] = append(bySrv[stripe], Segment{Off: localOff, Buf: seg.Buf[lo:hi]})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return bySrv, nil
}

// GlobalLen reports the smallest global length whose prefix [0, n)
// contains all localLen bytes of stripe i — the inverse of LocalLen,
// used to derive a striped store's logical size from its members'.
func (g StripeGeom) GlobalLen(localLen int64, i int) int64 {
	if localLen <= 0 {
		return 0
	}
	last := localLen - 1
	row := last / g.Unit
	within := last - row*g.Unit
	return row*g.Unit*int64(g.Count) + int64(i)*g.Unit + within + 1
}
