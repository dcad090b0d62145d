package core

import (
	"fmt"

	"repro/internal/datatype"
	"repro/internal/flatten"
	"repro/internal/storage"
)

// listEngine is the ROMIO-style baseline (paper §2).  Filetypes and
// memtypes are explicitly flattened into ol-lists of ⟨offset,length⟩
// tuples; positioning traverses the lists linearly; copies are performed
// per tuple; every collective access makes each AP build and transmit an
// ol-list of its accesses for each IOP whose file domain it touches.
type listEngine struct {
	f     *File
	cache map[*datatype.Type]flatten.List // explicit-flatten cache
	flat  *flatten.View                   // list-based view representation
}

func newListEngine(f *File) *listEngine {
	return &listEngine{f: f, cache: make(map[*datatype.Type]flatten.List)}
}

func (e *listEngine) setView() error {
	f := e.f
	// Explicit flattening, cached for reuse with the same datatype
	// (ROMIO stores the ol-list on the datatype).
	l, ok := e.cache[f.v.ftype]
	if !ok {
		l = flatten.Flatten(f.v.ftype)
		e.cache[f.v.ftype] = l
		f.Stats.ListTuples += int64(len(l))
	}
	e.flat = &flatten.View{
		Disp:   f.v.disp,
		Extent: f.v.ftype.Extent(),
		Bytes:  l.Bytes(),
		Segs:   l,
	}
	// List-based SetView is still collective per MPI; synchronize.
	f.p.Barrier()
	return nil
}

func (e *listEngine) dataToFileStart(d int64) int64 {
	return e.flat.DataToFile(d)
}

func (e *listEngine) dataToFileEnd(d int64) int64 {
	return e.flat.DataToFile(d-1) + 1
}

func (e *listEngine) dataInRange(lo, hi int64) int64 {
	if hi <= lo {
		return 0
	}
	var n int64
	e.flat.EachInRange(lo, hi, func(_, _, ln int64) { n += ln })
	return n
}

func (e *listEngine) newMemState(memtype *datatype.Type, count int64) *memState {
	ms := &memState{t: memtype, count: count}
	// The memory side is local to the process, so even the list-based
	// engine may use a compiled memtype program — the file side keeps
	// its ol-list character.  The ablation (DisableProgram) restores
	// the pure ROMIO flatten below.
	if p := e.f.lookupProgram(nil, memtype); p != nil {
		ms.setProgram(p)
		return ms
	}
	if memtype.ContiguousTiled() {
		total := count * memtype.Size()
		ms.list = flatten.List{{Off: memtype.TrueLB(), Len: total}}
		ms.ext = count * memtype.Extent()
		ms.count = 1
	} else {
		ms.list = flatten.Flatten(memtype)
		ms.ext = memtype.Extent()
		e.f.Stats.ListTuples += int64(len(ms.list))
	}
	return ms
}

func (e *listEngine) packUser(dst, buf []byte, mem *memState, skip, n int64) {
	if mem.packProg(dst, buf, skip, n, true) {
		return
	}
	flatten.PackList(dst[:n], buf, mem.list, mem.ext, mem.count, skip, n)
}

func (e *listEngine) unpackUser(buf, src []byte, mem *memState, skip, n int64) {
	if mem.packProg(src, buf, skip, n, false) {
		return
	}
	flatten.UnpackList(buf, src[:n], mem.list, mem.ext, mem.count, skip, n)
}

// listViewCursor wraps the ol-list cursor; initial positioning is the
// linear O(N_block) traversal of §2.2, advancing is per-tuple.
type listViewCursor struct {
	c *flatten.Cursor
}

func (e *listEngine) seekData(d0 int64) viewCursor {
	return &listViewCursor{c: e.flat.SeekData(d0)}
}

func (vc *listViewCursor) countUpTo(fileHi int64) int64 {
	return vc.c.CountUpTo(fileHi)
}

func (vc *listViewCursor) copyWindow(cb, w []byte, c, winLo int64, write bool) {
	start := vc.c.DataOffset()
	vc.c.Each(c, func(fileOff, dataOff, ln int64) {
		if write {
			copy(w[fileOff-winLo:fileOff-winLo+ln], cb[dataOff-start:])
		} else {
			copy(cb[dataOff-start:dataOff-start+ln], w[fileOff-winLo:])
		}
	})
}

// copyUser: the file side of the list-based engine is an ol-list, not a
// program, so it always stages.
func (vc *listViewCursor) copyUser([]byte, int64, int64, []byte, *memState, int64, bool) bool {
	return false
}

func (vc *listViewCursor) eachRun(c int64, emit func(fileOff, dataOff, ln int64)) {
	vc.c.Each(c, emit)
}

// eachUserRun: as copyUser, there is no second program to walk.
func (vc *listViewCursor) eachUserRun(int64, *memState, int64, func(fileOff, userOff, ln int64)) bool {
	return false
}

// ---- Collective access: the ol-list exchange of §2.3. ----

// apTriple is one entry of an AP's access list for an IOP domain: an
// absolute file segment plus the view-data offset of its first byte.
// Only ⟨fileOff,len⟩ is transmitted (16 bytes per tuple).
type apTriple struct {
	fileOff, dataOff, len int64
}

// buildAPTriples builds the AP-side access list for one domain, clipped
// to the access's data range — the O(S_domain/S_extent · N_block) cost of
// §2.3.
func (e *listEngine) buildAPTriples(domLo, domHi, d0, d int64) []apTriple {
	var out []apTriple
	e.flat.EachInRange(domLo, domHi, func(fileOff, dataOff, n int64) {
		a, b := dataOff, dataOff+n
		if a < d0 {
			fileOff += d0 - a
			a = d0
		}
		if b > d0+d {
			b = d0 + d
		}
		if a >= b {
			return
		}
		out = append(out, apTriple{fileOff: fileOff, dataOff: a, len: b - a})
	})
	e.f.Stats.ListTuples += int64(len(out))
	return out
}

func encodeTuples(ts []apTriple) []byte {
	buf := make([]byte, flatten.TupleBytes*len(ts))
	for i, t := range ts {
		putInt64(buf[i*flatten.TupleBytes:], t.fileOff)
		putInt64(buf[i*flatten.TupleBytes+8:], t.len)
	}
	return buf
}

// decodeTuples decodes a received access-list payload.  The payload
// crosses the (simulated) wire, so it is validated rather than trusted:
// a truncated or odd-length payload, or a tuple with a negative length,
// yields an error wrapping ErrCorruptAccessList.
func decodeTuples(buf []byte) (flatten.List, error) {
	if len(buf)%flatten.TupleBytes != 0 {
		return nil, fmt.Errorf("core: access-list payload of %d bytes is not a whole number of %d-byte tuples: %w",
			len(buf), flatten.TupleBytes, ErrCorruptAccessList)
	}
	l := make(flatten.List, len(buf)/flatten.TupleBytes)
	for i := range l {
		seg := flatten.Segment{
			Off: getInt64(buf[i*flatten.TupleBytes:]),
			Len: getInt64(buf[i*flatten.TupleBytes+8:]),
		}
		if seg.Off < 0 || seg.Len < 0 {
			return nil, fmt.Errorf("core: access-list tuple %d has negative offset or length ⟨%d,%d⟩: %w",
				i, seg.Off, seg.Len, ErrCorruptAccessList)
		}
		l[i] = seg
	}
	return l, nil
}

// tripleCursor walks an AP's domain triples sequentially across window
// boundaries, handling tuples that span a boundary.
type tripleCursor struct {
	ts     []apTriple
	i      int
	within int64
}

// window returns the data range [a, b) of the triples up to absolute
// file offset winHi, advancing the cursor.  a == b means no data.
func (c *tripleCursor) window(_, winHi int64) (a, b int64) {
	a = -1
	for c.i < len(c.ts) {
		t := c.ts[c.i]
		start := t.fileOff + c.within
		if start >= winHi {
			break
		}
		take := t.len - c.within
		if rest := winHi - start; take > rest {
			take = rest
		}
		if a < 0 {
			a = t.dataOff + c.within
		}
		b = t.dataOff + c.within + take
		c.within += take
		if c.within == t.len {
			c.i++
			c.within = 0
		} else {
			break
		}
	}
	if a < 0 {
		return 0, 0
	}
	return a, b
}

// listAPState carries the per-IOP access lists an AP built (and sent)
// for one collective access.
type listAPState struct {
	triples [][]apTriple
}

func (s *listAPState) cursor(i int) apCursor {
	return &tripleCursor{ts: s.triples[i]}
}

// lend: the paper's baseline packs every share it sends.
func (s *listAPState) lend(segs [][]byte, _, _ int64) ([][]byte, bool) { return segs, false }

// apSetup builds and sends this rank's access list for every IOP domain;
// this many-to-many ol-list exchange happens on every collective access.
func (e *listEngine) apSetup(pl *collPlan, acc *collAccess) apState {
	f, d0, d := e.f, acc.d0, acc.d
	st := &listAPState{triples: make([][]apTriple, pl.nIOP)}
	for i := 0; i < pl.nIOP; i++ {
		domLo, domHi := pl.domain(i)
		if d > 0 && domLo < domHi {
			st.triples[i] = e.buildAPTriples(domLo, domHi, d0, d)
		}
		payload := encodeTuples(st.triples[i])
		f.Stats.ListBytesSent += int64(len(payload))
		f.p.SendNoCopy(i, tagCollList, payload)
	}
	return st
}

// listCursor walks a received ol-list sequentially, slicing per-window
// sub-lists (ROMIO's transient per-block indexed datatypes).
type listCursor struct {
	l      flatten.List
	i      int
	within int64
}

func (c *listCursor) sliceUpTo(winHi int64) flatten.List {
	var out flatten.List
	for c.i < len(c.l) {
		seg := c.l[c.i]
		start := seg.Off + c.within
		if start >= winHi {
			break
		}
		take := seg.Len - c.within
		if rest := winHi - start; take > rest {
			take = rest
		}
		out = append(out, flatten.Segment{Off: start, Len: take})
		c.within += take
		if c.within == seg.Len {
			c.i++
			c.within = 0
		} else {
			break
		}
	}
	return out
}

// listIOPState holds the per-AP list cursors of one IOP.
type listIOPState struct {
	f       *File
	cursors []listCursor
}

// iopSetup receives one access list from every AP.
func (e *listEngine) iopSetup(pl *collPlan, _ *collAccess) (iopState, error) {
	f := e.f
	P := f.p.Size()
	st := &listIOPState{f: f, cursors: make([]listCursor, P)}
	var firstErr error
	for n := 0; n < P; n++ {
		payload, src, _ := f.p.Recv(-1, tagCollList)
		l, err := decodeTuples(payload)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("core: rank %d: %w", src, err)
		}
		st.cursors[src].l = l
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return st, nil
}

// listIOPWindow is one window's per-AP sub-lists (ROMIO's transient
// indexed datatypes), with per-tuple copying.
type listIOPWindow struct {
	winLo, winHi int64
	subs         []flatten.List
	lens         []int64
	tot          int64
}

func (s *listIOPState) window(winLo, winHi int64) iopWindow {
	P := len(s.cursors)
	w := &listIOPWindow{
		winLo: winLo, winHi: winHi,
		subs: make([]flatten.List, P),
		lens: make([]int64, P),
	}
	for r := 0; r < P; r++ {
		w.subs[r] = s.cursors[r].sliceUpTo(winHi)
		s.f.Stats.ListTuples += int64(len(w.subs[r]))
		var n int64
		for _, seg := range w.subs[r] {
			n += seg.Len
		}
		w.lens[r] = n
		w.tot += n
	}
	return w
}

func (w *listIOPWindow) total() int64         { return w.tot }
func (w *listIOPWindow) chunkLen(r int) int64 { return w.lens[r] }

// release is a no-op: the list engine's windows alias list slices whose
// lifetime is the collective; per-window allocation is inherent to the
// list representation (part of what the listless engine eliminates).
func (w *listIOPWindow) release() {}

// covered merges the per-AP window sub-lists (the list-merging cost of
// the ROMIO write optimization, §2.3).
func (w *listIOPWindow) covered() bool {
	nonEmpty := make([]flatten.List, 0, len(w.subs))
	for _, l := range w.subs {
		if len(l) > 0 {
			nonEmpty = append(nonEmpty, l)
		}
	}
	return flatten.Merge(nonEmpty...).Covers(w.winLo, w.winHi)
}

// copyLent: an IOP of the list-based engine knows every access, its own
// included, only as the ol-list it received, and every share travels
// packed — the paper's baseline.
func (w *listIOPWindow) copyLent([]byte, int, bool) bool { return false }

// direct: the list-based engine is the paper's baseline and moves every
// window through the window buffer, tuple by tuple; the segment forms
// are never asked for.
func (w *listIOPWindow) direct() bool { return false }

func (w *listIOPWindow) chunkSegs([]storage.Segment, int, []byte) []storage.Segment {
	panic("core: list-based windows are never direct")
}

func (w *listIOPWindow) lentSegs(segs []storage.Segment, _ int) ([]storage.Segment, bool) {
	return segs, false
}

func (w *listIOPWindow) copyIn(buf []byte, r int, chunk []byte) {
	var pos int64
	for _, seg := range w.subs[r] {
		copy(buf[seg.Off-w.winLo:seg.Off-w.winLo+seg.Len], chunk[pos:pos+seg.Len])
		pos += seg.Len
	}
}

func (w *listIOPWindow) copyOut(buf []byte, r int, chunk []byte) {
	var pos int64
	for _, seg := range w.subs[r] {
		copy(chunk[pos:pos+seg.Len], buf[seg.Off-w.winLo:seg.Off-w.winLo+seg.Len])
		pos += seg.Len
	}
}
