package fotf

import "repro/internal/datatype"

// PackCount packs exactly the data of count instances (the message-style
// entry point, where the typed buffer is known to hold count whole
// instances).
func PackCount(dst, src []byte, count int64, t *datatype.Type, skip int64) int64 {
	limit := count*t.Size() - skip
	if limit > int64(len(dst)) {
		limit = int64(len(dst))
	}
	if limit <= 0 {
		return 0
	}
	Runs(t, skip, skip+limit, func(bufOff, dataOff, runLen, stride, n int64) {
		copyGroup(dst[dataOff-skip:], src, bufOff, runLen, stride, n, true)
	})
	return limit
}

// copyGroup moves one group of n evenly spaced runs between the typed
// buffer b (runs of runLen bytes at bufOff + i*stride) and the contiguous
// buffer c (at i*runLen).  pack=true copies b→c.  Runs that abut are one
// copy; the rest go through the copy kernel, kernRuns.
func copyGroup(c, b []byte, bufOff, runLen, stride, n int64, pack bool) {
	if n == 1 || stride == runLen {
		total := runLen * n
		if pack {
			copy(c[:total], b[bufOff:bufOff+total])
		} else {
			copy(b[bufOff:bufOff+total], c[:total])
		}
		return
	}
	if pack {
		kernRuns(c, 0, runLen, 0, b, bufOff, stride, 0, runLen, n, 1)
	} else {
		kernRuns(b, bufOff, stride, 0, c, 0, runLen, 0, runLen, n, 1)
	}
}

// CopyRange moves the data bytes [d0, d1) of the tiled type t between the
// typed buffer b (addressed from the instance-0 origin, offset by bias
// bytes: run at bufOff lands at b[bufOff-bias]) and the contiguous buffer
// c (data byte d lands at c[d-d0]).  pack=true copies b→c.
//
// The bias parameter implements the paper's "virtual file buffer"
// adjustment (§3.2.2): a window of the file starting at absolute offset
// lo is addressed as a typed buffer whose origin lies bias=lo bytes
// before the window start.
func CopyRange(c, b []byte, t *datatype.Type, d0, d1, bias int64, pack bool) {
	if d1 <= d0 {
		return
	}
	Runs(t, d0, d1, func(bufOff, dataOff, runLen, stride, n int64) {
		copyGroup(c[dataOff-d0:], b, bufOff-bias, runLen, stride, n, pack)
	})
}
