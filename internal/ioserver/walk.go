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
// Both ends register only what core.File.SetView accepts (checkView), so
// every view is monotone and cut by navigation alone (eachUnit): the
// data below a stripe-unit edge is a prefix of the data, so a unit holds
// one contiguous data range, found with a BufToData per edge and no
// enumeration of what lies inside.

// checkView is the registration rule, SetView's: a non-negative
// displacement and a legal filetype.  A legal filetype with data has
// trueLB >= 0 and extent >= trueUB: its runs ascend across instances.
func checkView(disp int64, t *datatype.Type) error {
	if disp < 0 {
		return fmt.Errorf("negative displacement %d", disp)
	}
	return datatype.ValidateFiletype(datatype.Byte, t)
}

// eachUnit enumerates, in data order, the stripe units that hold data of
// range [d0, d1) of the view (t tiled at displacement disp, as checkView
// admits it): fn receives the unit index and the data range [da, db) the
// unit holds.  only >= 0 restricts the enumeration
// to that stripe's units; the others are stepped over arithmetically,
// and a stretch of units without data is skipped with one StartPos.
func eachUnit(t *datatype.Type, disp int64, g storage.StripeGeom, only int, d0, d1 int64, fn func(unit, da, db int64) error) error {
	if t.Size() == 0 {
		return nil // a view with no data: no unit holds any
	}
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

// partition cuts p, data range [d0, d0+len(p)) of the view, by stripe:
// shares[i] is stripe i's stream, the pieces of p it owns in data order,
// and lens[i] its length — the one pass over the view a client request
// makes.
func (av *aggView) partition(g storage.StripeGeom, p []byte, d0 int64) (shares [][][]byte, lens []int, err error) {
	shares, lens = make([][][]byte, g.Count), make([]int, g.Count)
	err = eachUnit(av.t, av.v.Disp, g, -1, d0, d0+int64(len(p)), func(u, da, db int64) error {
		stripe := int(u % int64(g.Count))
		shares[stripe] = append(shares[stripe], p[da-d0:db-d0])
		lens[stripe] += int(db - da)
		return nil
	})
	return shares, lens, err
}
