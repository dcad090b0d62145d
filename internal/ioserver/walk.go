package ioserver

import (
	"fmt"
	"math"

	"repro/internal/datatype"
	"repro/internal/fotf"
	"repro/internal/storage"
)

// The partition both sides of the view protocol share.  The client and
// each server cut data range [d0, d1) of the registered pattern at the
// identical stripe layout (storage.StripeGeom), so the per-server byte
// streams line up without any per-run metadata on the wire: server s's
// stream is the data of the pieces the partition assigns to stripe s, in
// data order, on both ends.
//
// A monotone view — every legal filetype — is cut by navigation alone
// (eachUnit): the data below a stripe-unit edge is a prefix of the data,
// so a unit holds one contiguous data range, found with a BufToData per
// edge and no enumeration of what lies inside.  Any other view is cut
// run by run (walkView).  Both orders are the data order, so the two
// ends need not agree on which one they used.

// eachUnit enumerates, in data order, the stripe units that hold data of
// range [d0, d1) of the monotone view (t tiled at displacement disp,
// no data below file offset 0): fn receives the unit index and the data
// range [da, db) the unit holds.  only >= 0 restricts the enumeration
// to that stripe's units; the others are stepped over arithmetically,
// and a stretch of units without data is skipped with one StartPos.
func eachUnit(t *datatype.Type, disp int64, g storage.StripeGeom, only int, d0, d1 int64, fn func(unit, da, db int64) error) error {
	if d1/t.Size() >= (math.MaxInt64/2-disp)/t.Extent() {
		// Past this the arithmetic below would wrap.
		return fmt.Errorf("ioserver: view range [%d,%d) lies beyond the file offset space: %w", d0, d1, storage.ErrPermanent)
	}
	// below reports the request's data below file offset f.
	below := func(f int64) int64 { return min(max(fotf.BufToData(t, f-disp), d0), d1) }
	count := int64(g.Count)
	// Invariant: data byte d lies at or beyond the start of unit u.
	d, u := d0, (fotf.StartPos(t, d0)+disp)/g.Unit
	for d < d1 {
		if only >= 0 && u%count != int64(only) {
			u += (int64(only) - u%count + count) % count
			d = below(u * g.Unit)
			continue
		}
		db := below((u + 1) * g.Unit)
		if db == d { // nothing here: go to the unit that holds byte d
			u = (fotf.StartPos(t, d) + disp) / g.Unit
			continue
		}
		if err := fn(u, d, db); err != nil {
			return err
		}
		d, u = db, u+1
	}
	return nil
}

// walkView enumerates the stripe-partitioned contiguous pieces of data
// range [d0, d1) of any view in data order, run by run.  fn receives the
// owning stripe, the piece's offset within that stripe's local store,
// the piece's absolute data offset, and its length.  The walk stops at
// the first error.
func walkView(t *datatype.Type, disp int64, g storage.StripeGeom, d0, d1 int64, fn func(stripe int, localOff, dataOff, n int64) error) error {
	var err error
	fotf.Runs(t, d0, d1, func(bufOff, dataOff, runLen, stride, n int64) {
		if err != nil {
			return
		}
		for i := int64(0); i < n; i++ {
			abs := disp + bufOff + i*stride
			if abs < 0 {
				err = fmt.Errorf("ioserver: view places data at negative file offset %d: %w", abs, storage.ErrPermanent)
				return
			}
			dOff := dataOff + i*runLen
			if e := g.Each(abs, runLen, func(stripe int, localOff, lo, hi int64) error {
				return fn(stripe, localOff, dOff+lo, hi-lo)
			}); e != nil {
				err = e
				return
			}
		}
	})
	return err
}

// navigable reports whether the view can be cut with eachUnit.
func navigable(t *datatype.Type, disp int64) bool {
	return fotf.Monotone(t) && disp+t.TrueLB() >= 0
}

// partition cuts p, data range [d0, d0+len(p)) of the view, by stripe:
// shares[i] is stripe i's stream, the pieces of p it owns in data order,
// and lens[i] its length — the one pass over the view a client request
// makes.
func (av *aggView) partition(g storage.StripeGeom, p []byte, d0 int64) (shares [][][]byte, lens []int, err error) {
	shares, lens = make([][][]byte, g.Count), make([]int, g.Count)
	d1 := d0 + int64(len(p))
	add := func(stripe int, da, db int64) {
		shares[stripe] = append(shares[stripe], p[da-d0:db-d0])
		lens[stripe] += int(db - da)
	}
	if av.navigable {
		err = eachUnit(av.t, av.v.Disp, g, -1, d0, d1, func(u, da, db int64) error {
			add(int(u%int64(g.Count)), da, db)
			return nil
		})
	} else {
		err = walkView(av.t, av.v.Disp, g, d0, d1, func(stripe int, _, dataOff, n int64) error {
			add(stripe, dataOff, dataOff+n)
			return nil
		})
	}
	return shares, lens, err
}
