// Package flatten implements the ROMIO-style explicit ("list-based")
// representation of derived datatypes: ol-lists of ⟨offset,length⟩ tuples,
// and the operations the list-based I/O engine performs on them — linear
// positioning, per-tuple copying and list merging.
//
// This package is the *baseline* of the reproduction.  Its costs — O(N)
// construction and memory, O(N) traversal per positioning, per-tuple copy
// loops — are deliberate: they are the overheads quantified in §2.4 of the
// paper and eliminated by the listless engine (internal/fotf + the
// listless paths of internal/core).
package flatten

import (
	"sort"

	"repro/internal/datatype"
)

// Segment is one contiguous block of an ol-list: Len bytes at byte offset
// Off relative to the buffer/instance origin.
type Segment struct {
	Off, Len int64
}

// List is an ol-list: the explicit flattened form of one datatype
// instance, in type-map order, with adjacent blocks coalesced.
type List []Segment

// TupleBytes is the memory footprint of one ol-list tuple
// (offset + length, 8 bytes each), the paper's measure for the memory
// blow-up of explicit flattening.
const TupleBytes = 16

// Flatten explicitly flattens one instance of t into an ol-list,
// coalescing adjacent blocks.  Cost and memory are O(t.Blocks()).
func Flatten(t *datatype.Type) List {
	l := make(List, 0, minCap(t.Blocks()))
	t.Walk(func(off, length int64) {
		if n := len(l); n > 0 && l[n-1].Off+l[n-1].Len == off {
			l[n-1].Len += length
			return
		}
		l = append(l, Segment{Off: off, Len: length})
	})
	return l
}

func minCap(blocks int64) int64 {
	if blocks > 1<<20 {
		return 1 << 20
	}
	return blocks
}

// Bytes reports the total data length described by the list.
func (l List) Bytes() int64 {
	var s int64
	for _, seg := range l {
		s += seg.Len
	}
	return s
}

// Footprint reports the list's memory consumption in bytes
// (len(l) * TupleBytes).
func (l List) Footprint() int64 { return int64(len(l)) * TupleBytes }

// locate returns the index of the segment containing data offset d (bytes
// of *data*, not of extent) and the cumulative data bytes before that
// segment.  It traverses linearly from the start of the list — the
// ROMIO-style positioning cost of O(N/2) on average that listless I/O
// removes.  d must be in [0, l.Bytes()].
func (l List) locate(d int64) (idx int, cum int64) {
	for idx = 0; idx < len(l); idx++ {
		if cum+l[idx].Len > d {
			return idx, cum
		}
		cum += l[idx].Len
	}
	return len(l), cum
}

// PackList copies limit bytes of the typed data of src — described by
// count instances of list l with the given extent — into dst, skipping
// the first skip data bytes.  Copies are performed per tuple, reading
// each ⟨offset,length⟩ before the copy, as in list-based I/O.  It returns
// the number of bytes copied: min(limit, len(dst), remaining data).
func PackList(dst, src []byte, l List, extent, count, skip, limit int64) int64 {
	return transfer(dst, src, l, extent, count, skip, limit, true)
}

// UnpackList is the inverse of PackList: it copies from the contiguous
// src into the typed dst.
func UnpackList(dst, src []byte, l List, extent, count, skip, limit int64) int64 {
	return transfer(src, dst, l, extent, count, skip, limit, false)
}

// transfer moves bytes between a contiguous buffer c and a typed buffer
// b.  pack=true copies b→c, pack=false copies c→b.
func transfer(c, b []byte, l List, extent, count, skip, limit int64, pack bool) int64 {
	per := l.Bytes()
	if per == 0 || count == 0 {
		return 0
	}
	total := per * count
	if skip >= total {
		return 0
	}
	if limit > total-skip {
		limit = total - skip
	}
	if limit > int64(len(c)) {
		limit = int64(len(c))
	}
	if limit <= 0 {
		return 0
	}
	inst := skip / per
	rem := skip % per
	idx, cum := l.locate(rem) // linear traversal, list-based cost
	within := rem - cum

	var copied int64
	for copied < limit && inst < count {
		base := inst * extent
		for ; idx < len(l) && copied < limit; idx++ {
			seg := l[idx]
			off := base + seg.Off + within
			n := seg.Len - within
			within = 0
			if n > limit-copied {
				n = limit - copied
			}
			if pack {
				copy(c[copied:copied+n], b[off:off+n])
			} else {
				copy(b[off:off+n], c[copied:copied+n])
			}
			copied += n
		}
		idx = 0
		inst++
	}
	return copied
}

// View is a fileview in flattened form: the explicit representation the
// list-based engine stores per open file (disp + ol-list of the filetype).
type View struct {
	Disp   int64 // absolute byte displacement of the view in the file
	Extent int64 // filetype extent
	Bytes  int64 // data bytes per filetype instance
	Segs   List  // one flattened filetype instance
}

// DataToFile maps a data-stream offset (bytes of visible data from the
// start of the view) to an absolute file offset, traversing the ol-list
// linearly.
func (v *View) DataToFile(d int64) int64 {
	if v.Bytes == 0 {
		return v.Disp
	}
	inst := d / v.Bytes
	rem := d % v.Bytes
	idx, cum := v.Segs.locate(rem)
	if idx == len(v.Segs) { // d at the end of an instance
		return v.Disp + (inst+1)*v.Extent + v.Segs[0].Off
	}
	return v.Disp + inst*v.Extent + v.Segs[idx].Off + (rem - cum)
}

// EachInRange emits the (fileOff, dataOff, n) triples of the view's data
// that fall in the absolute file range [lo, hi).  For every overlapping
// filetype instance the whole ol-list is scanned — the
// O(S_access/S_extent · N_block) cost of building per-IOP access lists in
// collective list-based I/O (paper §2.3).
func (v *View) EachInRange(lo, hi int64, emit func(fileOff, dataOff, n int64)) {
	if hi <= lo || v.Bytes == 0 {
		return
	}
	if v.contiguous() {
		// A contiguous view maps the range one-to-one (ROMIO likewise
		// special-cases contiguous filetypes instead of tiling them).
		if lo < v.Disp {
			lo = v.Disp
		}
		if hi > lo {
			emit(lo, lo-v.Disp, hi-lo)
		}
		return
	}
	rel0 := lo - v.Disp
	k0 := rel0 / v.Extent
	if rel0 < 0 {
		k0 = 0
	}
	for k := k0; ; k++ {
		base := v.Disp + k*v.Extent
		if base >= hi {
			return
		}
		var cum int64
		for _, seg := range v.Segs { // full linear scan per instance
			a := base + seg.Off
			b := a + seg.Len
			clipA, clipB := a, b
			if clipA < lo {
				clipA = lo
			}
			if clipB > hi {
				clipB = hi
			}
			if clipA < clipB {
				dataOff := k*v.Bytes + cum + (clipA - a)
				emit(clipA, dataOff, clipB-clipA)
			}
			cum += seg.Len
		}
	}
}

// Merge merges absolute segment lists into one sorted, coalesced list.
// The list-based collective write optimization merges the ol-lists of all
// processes to detect fully contiguous combined accesses; the cost scales
// with the total number of tuples (paper §2.3).
func Merge(lists ...List) List {
	var n int
	for _, l := range lists {
		n += len(l)
	}
	if n == 0 {
		return nil
	}
	all := make(List, 0, n)
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Off < all[j].Off })
	out := all[:1]
	for _, seg := range all[1:] {
		last := &out[len(out)-1]
		if seg.Off <= last.Off+last.Len {
			if end := seg.Off + seg.Len; end > last.Off+last.Len {
				last.Len = end - last.Off
			}
			continue
		}
		out = append(out, seg)
	}
	return out
}

// Covers reports whether the merged (sorted, coalesced) list fully covers
// the byte range [lo, hi).
func (l List) Covers(lo, hi int64) bool {
	if hi <= lo {
		return true
	}
	for _, seg := range l {
		if seg.Off <= lo && lo < seg.Off+seg.Len {
			if seg.Off+seg.Len >= hi {
				return true
			}
			lo = seg.Off + seg.Len
		}
	}
	return false
}

// Cursor walks a view's data stream sequentially.  Creating one via
// SeekData pays the linear ol-list positioning cost once; advancing is
// per-tuple, which is the copy-loop cost profile of list-based I/O.
type Cursor struct {
	v      *View
	inst   int64 // filetype instance
	idx    int   // segment index within the instance
	within int64 // bytes consumed of the current segment
	d      int64 // data offset
}

// SeekData positions a new cursor at data offset d by linear traversal
// of the ol-list (the ROMIO-style O(N_block) positioning of §2.2).
func (v *View) SeekData(d int64) *Cursor {
	inst := d / v.Bytes
	rem := d % v.Bytes
	idx, cum := v.Segs.locate(rem)
	return &Cursor{v: v, inst: inst, idx: idx, within: rem - cum, d: d}
}

// Each advances the cursor by n data bytes, emitting one
// (fileOff, dataOff, length) triple per ol-list tuple touched.
func (c *Cursor) Each(n int64, emit func(fileOff, dataOff, ln int64)) {
	v := c.v
	if v.contiguous() {
		if n > 0 {
			emit(v.Disp+c.d, c.d, n)
			c.d += n
		}
		return
	}
	for n > 0 {
		if c.idx == len(v.Segs) {
			c.idx = 0
			c.within = 0
			c.inst++
		}
		seg := v.Segs[c.idx]
		avail := seg.Len - c.within
		ln := avail
		if ln > n {
			ln = n
		}
		fileOff := v.Disp + c.inst*v.Extent + seg.Off + c.within
		emit(fileOff, c.d, ln)
		c.d += ln
		c.within += ln
		n -= ln
		if c.within == seg.Len {
			c.idx++
			c.within = 0
		}
	}
}

// DataOffset reports the cursor's current data offset.
func (c *Cursor) DataOffset() int64 { return c.d }

// CountUpTo reports how many data bytes lie between the cursor's current
// position and the absolute file offset fileHi, without advancing the
// cursor.  The scan is per-tuple.
func (c *Cursor) CountUpTo(fileHi int64) int64 {
	v := c.v
	if v.contiguous() {
		n := fileHi - v.Disp - c.d
		if n < 0 {
			n = 0
		}
		return n
	}
	cc := *c
	var n int64
	for {
		if cc.idx == len(v.Segs) {
			cc.idx = 0
			cc.within = 0
			cc.inst++
		}
		seg := v.Segs[cc.idx]
		start := v.Disp + cc.inst*v.Extent + seg.Off + cc.within
		if start >= fileHi {
			return n
		}
		avail := seg.Len - cc.within
		take := avail
		if rest := fileHi - start; take > rest {
			take = rest
		}
		n += take
		if take < avail {
			return n
		}
		cc.idx++
		cc.within = 0
	}
}

// contiguous reports whether the view is a dense byte-for-byte mapping
// (single segment covering the whole extent).
func (v *View) contiguous() bool {
	return len(v.Segs) == 1 && v.Segs[0].Off == 0 && v.Segs[0].Len == v.Extent
}
