package fotf

import "repro/internal/datatype"

// The paper's four entry points, MPIR_ff_pack, MPIR_ff_unpack,
// MPIR_Type_ff_size and MPIR_Type_ff_extent, over the package's run
// enumeration and navigation.  The engines copy through programs and
// cursors and navigate with StartPos, EndPos and BufToData, so these are
// the differential oracles' subject and the examples' API, declared with
// the tests that run them.

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

// TypeExtent returns the extent of the virtual typed buffer occupied when
// size data bytes are unpacked according to t after first skipping skip
// data bytes — the paper's MPIR_Type_ff_extent.
func TypeExtent(t *datatype.Type, skip, size int64) int64 {
	if size <= 0 {
		return 0
	}
	return EndPos(t, skip+size) - StartPos(t, skip)
}

// TypeSize returns the number of data bytes contained in a virtual typed
// buffer of the given extent that starts at data byte skip — the paper's
// MPIR_Type_ff_size.  t must have a monotone type map.
func TypeSize(t *datatype.Type, skip, extent int64) int64 {
	if extent <= 0 {
		return 0
	}
	a := StartPos(t, skip)
	return BufToData(t, a+extent) - skip
}
