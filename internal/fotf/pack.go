package fotf

import "repro/internal/datatype"

// Pack packs data from the typed buffer src into the contiguous buffer
// dst, skipping the first skip data bytes of the (indefinitely tiled)
// type t — the paper's MPIR_ff_pack.  src is addressed from the origin of
// instance 0; t must not place data at negative offsets.  It returns the
// number of bytes packed: min(len(dst), available data if t is tiled over
// len(src)).
//
// The copy itself runs in batch loops over groups of evenly spaced runs
// (see Runs); the time is proportional to the bytes copied plus the tree
// depth, independent of skip and of the block count of t.
func Pack(dst, src []byte, t *datatype.Type, skip int64) int64 {
	limit := avail(t, int64(len(src)), skip)
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

// Unpack unpacks data from the contiguous buffer src into the typed
// buffer dst, skipping the first skip data bytes of t — the paper's
// MPIR_ff_unpack.  It returns the number of bytes unpacked:
// min(len(src), available data if t is tiled over len(dst)).
func Unpack(dst, src []byte, t *datatype.Type, skip int64) int64 {
	limit := avail(t, int64(len(dst)), skip)
	if limit > int64(len(src)) {
		limit = int64(len(src))
	}
	if limit <= 0 {
		return 0
	}
	Runs(t, skip, skip+limit, func(bufOff, dataOff, runLen, stride, n int64) {
		copyGroup(src[dataOff-skip:], dst, bufOff, runLen, stride, n, false)
	})
	return limit
}

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

// UnpackCount unpacks into exactly count instances.
func UnpackCount(dst, src []byte, count int64, t *datatype.Type, skip int64) int64 {
	limit := count*t.Size() - skip
	if limit > int64(len(src)) {
		limit = int64(len(src))
	}
	if limit <= 0 {
		return 0
	}
	Runs(t, skip, skip+limit, func(bufOff, dataOff, runLen, stride, n int64) {
		copyGroup(src[dataOff-skip:], dst, bufOff, runLen, stride, n, false)
	})
	return limit
}

// avail returns the number of data bytes past skip of t tiled over a
// typed buffer of buflen bytes: whole instances that fit plus a final
// partial instance truncated at the buffer end.
func avail(t *datatype.Type, buflen, skip int64) int64 {
	size, ext := t.Size(), t.Extent()
	if size == 0 {
		return 0
	}
	var total int64
	if ext <= 0 {
		total = size
	} else {
		k := buflen / ext // whole instances
		total = k * size
		if rest := buflen - k*ext; rest > 0 {
			total += bufToData1(t, rest)
		}
	}
	if skip >= total {
		return 0
	}
	return total - skip
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
