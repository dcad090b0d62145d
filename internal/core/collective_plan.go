package core

// collPlan is the deterministic schedule of one collective access, which
// every rank computes identically from the allgathered access ranges.
// Every rank is an I/O process: rank i is the IOP of file domain i.
type collPlan struct {
	gLo, gHi int64
	domSize  int64
	d0s      []int64 // per-rank access start, in view-data bytes
	ds       []int64 // per-rank data sizes
	los      []int64 // per-rank absolute first byte
	his      []int64 // per-rank absolute end
}

// domain returns IOP i's file domain, clamped to the global range.
func (pl *collPlan) domain(i int) (lo, hi int64) {
	lo = pl.gLo + int64(i)*pl.domSize
	hi = lo + pl.domSize
	if hi > pl.gHi {
		hi = pl.gHi
	}
	if lo > hi {
		lo = hi
	}
	return
}

// holds reports whether IOP i's file domain meets the byte range of
// rank r's access — whether or not r's view has data in the part they
// share.
func (pl *collPlan) holds(i, r int) bool {
	lo, hi := pl.domain(i)
	return pl.ds[r] > 0 && lo < hi && lo < pl.his[r] && hi > pl.los[r]
}

// lends reports whether AP r lends its access to IOP i on an in-process
// world (listless engine): i holds r's range, and i is not r, whose IOP
// has the access at hand.  Both ends ask it of the plan, so every loan
// sent is taken.
func (pl *collPlan) lends(r, i int) bool { return r != i && pl.holds(i, r) }

// makePlan allgathers every rank's access range and partitions the
// aggregate file range into per-IOP domains.  The bool result is false
// when no rank accesses any data.
func (f *File) makePlan(d0, d int64) (*collPlan, bool) {
	var lo, hi int64
	if d > 0 {
		lo = f.eng.dataToFileStart(d0)
		hi = f.eng.dataToFileEnd(d0 + d)
	}
	all := f.p.AllgatherInt64s([]int64{d0, d, lo, hi})
	P := f.p.Size()
	pl := &collPlan{
		d0s: make([]int64, P),
		ds:  make([]int64, P),
		los: make([]int64, P),
		his: make([]int64, P),
	}
	gLo, gHi := int64(-1), int64(-1)
	for r, v := range all {
		pl.d0s[r], pl.ds[r], pl.los[r], pl.his[r] = v[0], v[1], v[2], v[3]
		if v[1] == 0 {
			continue
		}
		if gLo < 0 || v[2] < gLo {
			gLo = v[2]
		}
		if v[3] > gHi {
			gHi = v[3]
		}
	}
	if gLo < 0 {
		return nil, false // nothing to do anywhere
	}
	pl.gLo, pl.gHi = gLo, gHi
	pl.domSize = (gHi - gLo + int64(P) - 1) / int64(P)
	if pl.domSize == 0 {
		pl.domSize = 1
	}
	return pl, true
}
