package core

import (
	"fmt"

	"repro/internal/datatype"
	"repro/internal/fotf"
	"repro/internal/storage"
	"repro/internal/trace"
)

// listlessEngine is the paper's contribution (§3).  No ol-lists exist:
// pack/unpack and positioning use flattening-on-the-fly (internal/fotf);
// each process's fileview is exchanged once, as a compact encoded tree,
// when the view is set (fileview caching); and collective writes skip
// the read-modify-write pre-read when the combined fileviews cover the
// written range (the mergeview optimization).
type listlessEngine struct {
	f          *File
	payload    []byte         // own encoded view, as exchanged
	remote     []remoteView   // per-rank cached views
	merged     *datatype.Type // mergeview struct type (write optimization)
	mergedEdge navEdge        // last window edge navigated on merged
	prog       *fotf.Program  // compiled own-fileview program; nil = walk
	sb         segBuilder     // direct windows: runs to backend segments
	lb         lendBuilder    // shares lent over a wire: memory runs to user-buffer slices
}

func newListlessEngine(f *File) *listlessEngine {
	e := &listlessEngine{f: f}
	e.sb.onRuns, e.sb.onPiece = e.sb.addRuns, e.sb.add
	e.lb.onRuns = e.lb.addRuns
	return e
}

// segBuilder turns run enumerations into backend segments: the buffers
// of the segments it appends are slices of mem, and a piece that
// continues the previous one both in the file and in mem extends that
// segment instead (runs that abut across an instance or group boundary
// the program keeps apart).  It lives with the engine, its two emit
// functions bound once, so that describing a window allocates nothing;
// one share is described at a time, on the collective's main goroutine.
type segBuilder struct {
	segs            []storage.Segment
	mem             []byte
	first           int   // segs[first:] describe the current share
	fileEnd, memEnd int64 // ends of the piece added last
	// For onRuns: a run at view buffer offset x lies at file offset
	// disp+x, and mem holds the share's bytes packed from data byte d0 of
	// the view on.
	disp, d0 int64

	onRuns  fotf.EmitFunc                   // for Program.Runs
	onPiece func(fileOff, memOff, ln int64) // for fotf.RunsFused, the file as destination
}

// begin starts a share whose bytes live in mem, appending to segs.
func (b *segBuilder) begin(segs []storage.Segment, mem []byte) {
	b.segs, b.mem, b.first = segs, mem, len(segs)
}

// end returns the extended batch and drops the builder's references.
func (b *segBuilder) end() []storage.Segment {
	segs := b.segs
	b.segs, b.mem = nil, nil
	return segs
}

func (b *segBuilder) add(fileOff, memOff, ln int64) {
	if n := len(b.segs); n > b.first && fileOff == b.fileEnd && memOff == b.memEnd {
		sg := &b.segs[n-1]
		sg.Buf = sg.Buf[:int64(len(sg.Buf))+ln] // still within mem: the slice was cut from it
	} else {
		b.segs = append(b.segs, storage.Segment{Off: fileOff, Buf: b.mem[memOff : memOff+ln]})
	}
	b.fileEnd, b.memEnd = fileOff+ln, memOff+ln
}

func (b *segBuilder) addRuns(bufOff, dataOff, runLen, stride, n int64) {
	for i := int64(0); i < n; i++ {
		b.add(b.disp+bufOff+i*stride, dataOff+i*runLen-b.d0, runLen)
	}
}

// viewSegs appends data bytes [a, c) of the view (p, disp) to segs, one
// segment per file run: mem holds exactly those bytes in data order — a
// packed chunk, or the user buffer of a contiguous access.
func (e *listlessEngine) viewSegs(segs []storage.Segment, p *fotf.Program, disp, a, c int64, mem []byte) []storage.Segment {
	b := &e.sb
	b.begin(segs, mem)
	b.disp, b.d0 = disp, a
	p.Runs(a, c, b.onRuns)
	return b.end()
}

// lendBuilder cuts a share of the user buffer buf into the slices its
// memtype program's runs are, one per stretch of abutting runs, for a
// write on a wired world (lendShare).  Like segBuilder it lives with the
// engine, its emit function bound once.
type lendBuilder struct {
	out   [][]byte
	buf   []byte
	first int   // out[first:] are the current share's
	end   int64 // buffer offset just past the slice added last

	onRuns fotf.EmitFunc
}

func (b *lendBuilder) addRuns(bufOff, _, runLen, stride, n int64) {
	for i := int64(0); i < n; i++ {
		off := bufOff + i*stride
		if k := len(b.out); k > b.first && off == b.end {
			b.out[k-1] = b.out[k-1][:int64(len(b.out[k-1]))+runLen] // still within buf: the slice was cut from it
		} else {
			b.out = append(b.out, b.buf[off:off+runLen])
		}
		b.end = off + runLen
	}
}

// shareDense applies the window-or-list rule to data bytes [a, c) of the
// tiled type compiled as p: storage.PageDense over the buffer range they
// span and the runs they come in, counted only as far as the rule can
// tell the difference.
func shareDense(p *fotf.Program, a, c int64) bool {
	t := p.Type()
	span := fotf.EndPos(t, c) - fotf.StartPos(t, a)
	limit := (span + storage.PageSize - 1) / storage.PageSize
	return storage.PageDense(span, c-a, p.RunCountUpTo(a, c, limit))
}

// navEdge remembers the last buffer offset navigated through one view
// and the answer.  Windows abut — the upper edge of one is the lower edge
// of the next — so with one navEdge per view each distinct window edge
// is navigated once.  It lives in per-view or per-access state and is
// dropped with it; a view never changes under it.
type navEdge struct {
	off, data int64
	ok        bool
}

// bufToData is fotf.BufToData(t, off) through the memo.
func (m *navEdge) bufToData(t *datatype.Type, off int64) int64 {
	if !m.ok || m.off != off {
		*m = navEdge{off: off, data: fotf.BufToData(t, off), ok: true}
	}
	return m.data
}

// remoteView is the cached fileview of another rank, with the compiled
// copy program of that view (shared through the memo cache, so P ranks
// exchanging the same filetype shape compile it once).  cur resumes
// the ascending window sequence of copyIn/copyOut and edge that of the
// window navigation; all run on the collective's main goroutine only.
type remoteView struct {
	disp  int64
	ftype *datatype.Type
	fsize int64
	fext  int64
	prog  *fotf.Program
	cur   fotf.Cursor
	edge  navEdge
}

func (e *listlessEngine) setView() error {
	e.remote = nil
	e.merged = nil
	// Compile (or fetch) the fileview's copy program: the memoized,
	// flat-array counterpart of the walk, keyed by the same encoded
	// tree the view registration payload carries.  Replacing the
	// pointer here is the invalidation: the previous view's program
	// ages out of the cache LRU.
	e.prog = e.f.lookupProgram(nil, e.f.v.ftype)
	e.payload = encodeView(&e.f.v)
	if !e.f.opts.DisableViewCache {
		e.exchangeViews()
		e.buildMergeview()
	} else {
		e.f.p.Barrier()
	}
	return nil
}

// exchangeViews performs fileview caching: every rank broadcasts its
// encoded (compact, tree-proportional) fileview once.
func (e *listlessEngine) exchangeViews() {
	f := e.f
	f.Stats.ViewBytesSent += int64(len(e.payload)) // accounted once per SetView
	parts := f.p.Allgather(e.payload)
	e.remote = make([]remoteView, f.p.Size())
	for r, part := range parts {
		e.remote[r] = decodeView(r, part)
		rv := &e.remote[r]
		rv.prog = f.lookupProgram(part[8:], rv.ftype)
		rv.cur.Reset(rv.ftype, rv.prog)
	}
}

// encodeView builds the exchanged form of a view: the displacement and
// the filetype's tree encoding.
func encodeView(v *view) []byte {
	enc := datatype.Encode(v.ftype)
	payload := make([]byte, 8+len(enc))
	putInt64(payload, v.disp)
	copy(payload[8:], enc)
	return payload
}

func decodeView(rank int, part []byte) remoteView {
	disp := getInt64(part)
	ft, err := datatype.Decode(part[8:])
	if err != nil {
		panic(fmt.Sprintf("core: rank %d sent undecodable fileview: %v", rank, err))
	}
	return remoteView{disp: disp, ftype: ft, fsize: ft.Size(), fext: ft.Extent()}
}

// buildMergeview constructs the merged fileview of all processes as a
// struct type (the paper's mergetype), valid when all displacements and
// extents agree — the common file-partitioning case.  When they do not,
// merged stays nil and the collective write-coverage check falls back to
// per-rank navigation sums.
func (e *listlessEngine) buildMergeview() {
	disp := e.remote[0].disp
	ext := e.remote[0].fext
	for _, rv := range e.remote[1:] {
		if rv.disp != disp || rv.fext != ext {
			e.merged = nil
			return
		}
	}
	n := len(e.remote)
	blocklens := make([]int64, n)
	displs := make([]int64, n)
	children := make([]*datatype.Type, n)
	for i, rv := range e.remote {
		blocklens[i] = 1
		displs[i] = 0
		children[i] = rv.ftype
	}
	m, err := datatype.Struct(blocklens, displs, children)
	if err != nil {
		e.merged = nil
		return
	}
	// Pin the extent so the mergetype tiles like the filetypes.
	if m.Extent() != ext {
		if m, err = datatype.Resized(m, 0, ext); err != nil {
			e.merged = nil
			return
		}
	}
	// The mergeview coverage check is only sound when the fileviews do
	// not overlap (each file byte visible through at most one view).
	// Validate once at SetView; overlapping views (e.g. every rank using
	// the same default byte view) fall back to the per-AP sums.
	if m.Blocks() > 1<<22 || !viewsDisjoint(e.remote, ext) {
		e.merged = nil
		return
	}
	e.merged, e.mergedEdge = m, navEdge{}
}

// viewRuns yields the data runs of one instance of a filetype in type-map
// order — ascending, for a validated filetype — fetching them from the
// tree a chunk of data bytes at a time: the pull form of fotf.Runs that
// a merge of several views needs.  off and end are the current run, done
// is set past the last one.
type viewRuns struct {
	t        *datatype.Type
	emit     fotf.EmitFunc
	next     int64      // data offset the next fetch starts at
	groups   []runGroup // the chunk fetched last
	gi       int        // current group
	k        int64      // current run within it
	off, end int64
	done     bool
}

type runGroup struct{ off, runLen, stride, n int64 }

// viewRunsChunk is the data bytes per fetch: a few hundred groups at
// most, whatever the view.
const viewRunsChunk = 64 << 10

func newViewRuns(t *datatype.Type) *viewRuns {
	s := &viewRuns{t: t}
	s.emit = func(bufOff, _, runLen, stride, n int64) {
		s.groups = append(s.groups, runGroup{bufOff, runLen, stride, n})
	}
	s.advance()
	return s
}

// advance steps to the next run.
func (s *viewRuns) advance() {
	if s.gi < len(s.groups) {
		if s.k++; s.k == s.groups[s.gi].n {
			s.gi, s.k = s.gi+1, 0
		}
	}
	for s.gi == len(s.groups) {
		if s.next >= s.t.Size() {
			s.done = true
			return
		}
		s.groups, s.gi = s.groups[:0], 0
		hi := min(s.next+viewRunsChunk, s.t.Size())
		fotf.Runs(s.t, s.next, hi, s.emit)
		s.next = hi
	}
	g := &s.groups[s.gi]
	s.off = g.off + s.k*g.stride
	s.end = s.off + g.runLen
}

// viewsDisjoint reports whether the views, which share a displacement
// and the extent ext, cover each byte of one extent at most once and keep
// their data inside it, so that tiling preserves that.  Every view is a
// validated filetype, so its runs ascend, and a P-way merge of the run
// streams meets an overlap as a run starting before its predecessor's
// end: O(runs) time, O(P) memory, stopping at the first overlap.  (Were
// a stream not ascending, the merge would report an overlap, which only
// costs the optimization.)
func viewsDisjoint(views []remoteView, ext int64) bool {
	streams := make([]*viewRuns, len(views))
	for i := range views {
		streams[i] = newViewRuns(views[i].ftype)
	}
	var prevEnd int64 // data below offset 0 would overlap the previous tile
	for {
		var first *viewRuns
		for _, s := range streams {
			if !s.done && (first == nil || s.off < first.off) {
				first = s
			}
		}
		if first == nil {
			return prevEnd <= ext
		}
		if first.off < prevEnd {
			return false
		}
		prevEnd = first.end
		first.advance()
	}
}

// Engine-neutral navigation uses O(depth) flattening-on-the-fly calls.

func (e *listlessEngine) dataToFileStart(d int64) int64 {
	return e.f.v.disp + fotf.StartPos(e.f.v.ftype, d)
}

func (e *listlessEngine) dataToFileEnd(d int64) int64 {
	return e.f.v.disp + fotf.EndPos(e.f.v.ftype, d)
}

func (e *listlessEngine) dataInRange(lo, hi int64) int64 {
	if hi <= lo {
		return 0
	}
	v := &e.f.v
	a := fotf.BufToData(v.ftype, lo-v.disp)
	b := fotf.BufToData(v.ftype, hi-v.disp)
	return b - a
}

func (e *listlessEngine) newMemState(memtype *datatype.Type, count int64) *memState {
	ms := &memState{t: memtype, count: count, prog: e.f.lookupProgram(nil, memtype)}
	ms.cur.Reset(memtype, ms.prog)
	return ms
}

// fuses reports whether an IOP moves the shares of collective access acc
// in place, straight between its user buffer and the file side, instead
// of staging them through chunks (memLoan): the own fileview is compiled
// — the IOP runs the same program, cached — and the memtype is either
// compiled too (fotf.CopyFused walks both) or contiguous (the user buffer
// already is the packed data, and the fileview's program runs against
// it).  A read also needs every data byte of the access at its own buffer
// offset: IOPs fill the buffer from several goroutines at once, in no
// order, where an unpack from chunks runs in data order and leaves the
// later of two bytes that share an offset.  Nothing else selects the
// fused path; a declined compile falls back by leaving a program nil.
func (e *listlessEngine) fuses(acc *collAccess) bool {
	mem := acc.mem
	switch {
	case e.prog == nil:
		return false
	case mem.prog == nil:
		return mem.t.ContiguousTiled()
	}
	return acc.write || mem.prog.Disjoint(mem.count)
}

func (e *listlessEngine) packUser(dst, buf []byte, mem *memState, skip, n int64) {
	mem.cur.CopyRange(dst[:n], buf, skip, skip+n, 0, true)
}

func (e *listlessEngine) unpackUser(buf, src []byte, mem *memState, skip, n int64) {
	mem.cur.CopyRange(src[:n], buf, skip, skip+n, 0, false)
}

// listlessViewCursor tracks only a data offset: positioning and
// counting are O(depth) navigation calls, independent of block count.
// cur moves the bytes: it resumes the window sequence through the flat
// group array of the compiled fileview, or walks the tree where the
// view declined compilation.
type listlessViewCursor struct {
	e   *listlessEngine
	pos int64 // view-data offset
	cur fotf.Cursor
}

func (e *listlessEngine) seekData(d0 int64) viewCursor {
	vc := &listlessViewCursor{e: e, pos: d0}
	vc.cur.Reset(e.f.v.ftype, e.prog)
	return vc
}

func (vc *listlessViewCursor) countUpTo(fileHi int64) int64 {
	v := &vc.e.f.v
	return fotf.BufToData(v.ftype, fileHi-v.disp) - vc.pos
}

// copyWindow copies via the virtual file buffer of §3.2.2: the window is
// addressed as a typed buffer whose origin lies winLo-disp bytes before
// the window start.
func (vc *listlessViewCursor) copyWindow(cb, w []byte, c, winLo int64, write bool) {
	vc.cur.CopyRange(cb, w, vc.pos, vc.pos+c, winLo-vc.e.f.v.disp, !write)
	vc.pos += c
}

// copyUser is the fused form of copyWindow: with the fileview and the
// memtype both compiled, the bytes go between window and user buffer in
// one pass and no pack buffer exists.
func (vc *listlessViewCursor) copyUser(w []byte, c, winLo int64, buf []byte, mem *memState, skip int64, write bool) bool {
	if vc.e.prog == nil || mem.prog == nil {
		return false
	}
	bias := winLo - vc.e.f.v.disp
	if write {
		fotf.CopyFused(w, vc.e.prog, vc.pos, bias, buf, mem.prog, skip, 0, c)
	} else {
		fotf.CopyFused(buf, mem.prog, skip, 0, w, vc.e.prog, vc.pos, bias, c)
	}
	vc.pos += c
	return true
}

func (vc *listlessViewCursor) eachRun(c int64, emit func(fileOff, dataOff, ln int64)) {
	disp := vc.e.f.v.disp
	vc.cur.Runs(vc.pos, vc.pos+c, func(bufOff, dataOff, runLen, stride, n int64) {
		for i := int64(0); i < n; i++ {
			emit(disp+bufOff+i*stride, dataOff+i*runLen, runLen)
		}
	})
	vc.pos += c
}

// eachUserRun cuts the fileview program and the memtype program in
// lockstep: no packed copy of the data exists, the pieces index the user
// buffer.
func (vc *listlessViewCursor) eachUserRun(c int64, mem *memState, skip int64, emit func(fileOff, userOff, ln int64)) bool {
	if vc.e.prog == nil || mem.prog == nil {
		return false
	}
	fotf.RunsFused(vc.e.prog, vc.pos, -vc.e.f.v.disp, mem.prog, skip, 0, c, emit)
	vc.pos += c
	return true
}

// ---- Collective access: nothing but file data moves (§3.2.3). ----

// listlessAPState navigates this rank's own fileview per window.
type listlessAPState struct {
	e     *listlessEngine
	acc   *collAccess
	fused bool // IOPs move this access in place: the own IOP...
	lent  bool // ... and, in-process, every other (apSetup lent it)
	edge  navEdge
}

// apSetup exchanges the encoded views on every access when fileview
// caching is disabled (ablation; still no ol-lists).  In-process it then
// lends the access to every other IOP whose domain holds some of it, in
// one message each (collPlan.lends), for writes and reads alike: a typed
// loan when the access fuses, so that the IOP moves this rank's shares
// in place as it moves its own, else a pack loan, and the shares travel
// as chunks.
func (e *listlessEngine) apSetup(pl *collPlan, acc *collAccess) apState {
	f := e.f
	if f.opts.DisableViewCache {
		e.exchangeViews()
	}
	s := &listlessAPState{e: e, acc: acc, fused: e.fuses(acc)}
	if f.p.Wired() {
		return s
	}
	var l *memLoan // nil: a pack loan
	if s.fused {
		own := acc.loan()
		l, s.lent = &own, true
	}
	for i := 0; i < pl.nIOP; i++ {
		if pl.lends(f.p.Rank(), i) {
			f.p.SendRef(i, tagCollData, l)
		}
	}
	return s
}

func (s *listlessAPState) cursor(i int) apCursor {
	if s.lent || s.fused && i == s.e.f.p.Rank() {
		return nil
	}
	return s
}

// lend is the memory side of the rule allSparse applies to a lent share:
// contiguous memory is one slice, and the runs of a compiled memtype are
// lent as they lie unless they are page-dense.  Everything else — short
// runs, no program — is packed.
func (s *listlessAPState) lend(segs [][]byte, a, b int64) ([][]byte, bool) {
	acc, mp := s.acc, s.acc.mem.prog
	switch {
	case acc.mem.t.ContiguousTiled():
		l := acc.loan()
		return append(segs, l.contig(a, b)), true
	case mp == nil || shareDense(mp, a-acc.d0, b-acc.d0):
		return segs, false
	}
	lb := &s.e.lb
	lb.out, lb.buf, lb.first = segs, acc.buf, len(segs)
	mp.Runs(a-acc.d0, b-acc.d0, lb.onRuns)
	segs = lb.out
	lb.out, lb.buf = nil, nil
	return segs, true
}

func (s *listlessAPState) window(winLo, winHi int64) (a, b int64) {
	return s.dataAtSelf(winLo), s.dataAtSelf(winHi)
}

// dataAtSelf maps an absolute file offset to this rank's access data
// offset, clipped to [d0, d0+d) — O(depth) listless navigation.
func (s *listlessAPState) dataAtSelf(x int64) int64 {
	v, d0, d := &s.e.f.v, s.acc.d0, s.acc.d
	da := s.edge.bufToData(v.ftype, x-v.disp)
	if da < d0 {
		return d0
	}
	if da > d0+d {
		return d0 + d
	}
	return da
}

// listlessIOPState navigates the fileviews cached at SetView.  lent holds,
// by AP rank, the accesses this IOP moves in place: its own when it
// fuses, and the typed loans it took; nil where an AP's shares travel as
// chunks.  free is a freelist of released windows: the window loop holds
// at most two in flight, so reusing them (with their apA/apB slices)
// keeps the steady state allocation-free.  window and release are both
// called on the collective's main goroutine only.
type listlessIOPState struct {
	e    *listlessEngine
	pl   *collPlan
	lent []*memLoan
	free []*listlessIOPWindow
}

// iopSetup takes, in-process, the loan of every AP that lends this IOP
// its access (collPlan.lends), before the first window: a loan's view
// side is that AP's cached fileview, compiled as surely as the AP's own
// copy is, since the two are one tree.
func (e *listlessEngine) iopSetup(pl *collPlan, acc *collAccess) (iopState, error) {
	f, self := e.f, e.f.p.Rank()
	s := &listlessIOPState{e: e, pl: pl, lent: make([]*memLoan, f.p.Size())}
	if e.fuses(acc) {
		l := acc.loan()
		s.lent[self] = &l
	}
	if f.p.Wired() {
		return s, nil
	}
	esp := f.tr.Time(trace.PhaseExchange, trace.NoWindow, 0)
	for r := range s.lent {
		if pl.lends(r, self) {
			s.lent[r] = f.p.RecvRef(r, tagCollData).(*memLoan)
		}
	}
	f.Stats.ExchangeNs += esp.End()
	return s, nil
}

// dataAtRemote maps an absolute file offset to rank r's access data
// offset via its cached fileview, clipped to r's access range.
func (s *listlessIOPState) dataAtRemote(r int, x int64) int64 {
	rv := &s.e.remote[r]
	da := rv.edge.bufToData(rv.ftype, x-rv.disp)
	lo, hi := s.pl.d0s[r], s.pl.d0s[r]+s.pl.ds[r]
	if da < lo {
		return lo
	}
	if da > hi {
		return hi
	}
	return da
}

// listlessIOPWindow holds the per-AP data ranges of one window.
type listlessIOPWindow struct {
	s            *listlessIOPState
	winLo, winHi int64
	apA, apB     []int64
	tot          int64
	dir          bool // direct: no share is page-dense
}

func (s *listlessIOPState) window(winLo, winHi int64) iopWindow {
	P := len(s.pl.ds)
	var w *listlessIOPWindow
	if n := len(s.free); n > 0 {
		w = s.free[n-1]
		s.free = s.free[:n-1]
		w.winLo, w.winHi, w.tot = winLo, winHi, 0
	} else {
		w = &listlessIOPWindow{
			s: s, winLo: winLo, winHi: winHi,
			apA: make([]int64, P), apB: make([]int64, P),
		}
	}
	for r := 0; r < P; r++ {
		if s.pl.ds[r] == 0 {
			// Must be reset explicitly: a recycled window may hold
			// stale ranges here.
			w.apA[r], w.apB[r] = 0, 0
			continue
		}
		a := s.dataAtRemote(r, winLo)
		b := s.dataAtRemote(r, winHi)
		w.apA[r], w.apB[r] = a, b
		w.tot += b - a
	}
	w.dir = w.allSparse()
	return w
}

// allSparse is the direct-window decision, from what the window holds:
// every AP's share has a compiled view to enumerate and is not
// page-dense in the file, and a share moved in place — which never
// becomes a chunk — is not page-dense in its user buffer either.  One
// dense share keeps the window: its many short runs are what the window
// buffer is for.
func (w *listlessIOPWindow) allSparse() bool {
	for r, a := range w.apA {
		b := w.apB[r]
		if a == b {
			continue
		}
		if p := w.s.e.remote[r].prog; p == nil || shareDense(p, a, b) {
			return false
		}
		if l := w.s.lent[r]; l != nil && l.prog != nil && shareDense(l.prog, a-l.d0, b-l.d0) {
			return false
		}
	}
	return true
}

func (w *listlessIOPWindow) direct() bool { return w.dir }

func (w *listlessIOPWindow) release() { w.s.free = append(w.s.free, w) }

func (w *listlessIOPWindow) total() int64         { return w.tot }
func (w *listlessIOPWindow) chunkLen(r int) int64 { return w.apB[r] - w.apA[r] }

// covered uses the exact per-AP sum — sound because each byte is written
// at most once through the combined fileviews — confirmed, when the
// mergeview exists, by one navigation call on it (the paper's §3.2.3
// check).  The exact sum guards accesses where some ranks write nothing.
func (w *listlessIOPWindow) covered() bool {
	if w.tot != w.winHi-w.winLo {
		return false
	}
	e := w.s.e
	if e.merged == nil {
		return true
	}
	disp := e.remote[0].disp
	lo := e.mergedEdge.bufToData(e.merged, w.winLo-disp)
	hi := e.mergedEdge.bufToData(e.merged, w.winHi-disp)
	return hi-lo == w.winHi-w.winLo
}

// copyLent moves AP r's share [apA, apB) between its user buffer and the
// window in one pass through r's cached view program — the rank's own
// share included — fused with its memtype's where the memory layout has
// one.  The condition is the one AP r's cursor answered by.
func (w *listlessIOPWindow) copyLent(buf []byte, r int, write bool) bool {
	l := w.s.lent[r]
	if l == nil {
		return false
	}
	rv := &w.s.e.remote[r]
	a, b := w.apA[r], w.apB[r]
	bias := w.winLo - rv.disp
	switch {
	case l.prog == nil:
		rv.prog.CopyRange(l.contig(a, b), buf, a, b, bias, !write)
	case write:
		fotf.CopyFused(buf, rv.prog, a, bias, l.buf, l.prog, a-l.d0, 0, b-a)
	default:
		fotf.CopyFused(l.buf, l.prog, a-l.d0, 0, buf, rv.prog, a, bias, b-a)
	}
	return true
}

// lentSegs describes AP r's share where copyLent would copy it: through
// r's view program over the user buffer itself when that is the packed
// data, else by cutting the view program and the memtype program in
// lockstep.
func (w *listlessIOPWindow) lentSegs(segs []storage.Segment, r int) ([]storage.Segment, bool) {
	l := w.s.lent[r]
	if l == nil {
		return segs, false
	}
	e, rv := w.s.e, &w.s.e.remote[r]
	a, b := w.apA[r], w.apB[r]
	if l.prog == nil {
		return e.viewSegs(segs, rv.prog, rv.disp, a, b, l.contig(a, b)), true
	}
	e.sb.begin(segs, l.buf)
	fotf.RunsFused(rv.prog, a, -rv.disp, l.prog, a-l.d0, 0, b-a, e.sb.onPiece)
	return e.sb.end(), true
}

func (w *listlessIOPWindow) chunkSegs(segs []storage.Segment, r int, chunk []byte) []storage.Segment {
	rv := &w.s.e.remote[r]
	return w.s.e.viewSegs(segs, rv.prog, rv.disp, w.apA[r], w.apB[r], chunk)
}

func (w *listlessIOPWindow) copyIn(buf []byte, r int, chunk []byte) {
	rv := &w.s.e.remote[r]
	rv.cur.CopyRange(chunk, buf, w.apA[r], w.apB[r], w.winLo-rv.disp, false)
}

func (w *listlessIOPWindow) copyOut(buf []byte, r int, chunk []byte) {
	rv := &w.s.e.remote[r]
	rv.cur.CopyRange(chunk, buf, w.apA[r], w.apB[r], w.winLo-rv.disp, true)
}
