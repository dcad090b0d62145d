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
// written range (the paper's mergeview optimization: the views proved
// disjoint once, at SetView, then each window's exact per-AP sum).
type listlessEngine struct {
	f        *File
	remote   []remoteView       // per-rank cached views
	disjoint bool               // the cached views share no byte (viewsApart)
	prog     *fotf.Program      // compiled own-fileview program; nil = walk
	own      listlessViewCursor // direct windows: the own view, placed at each share
	plans    planCache          // fused-copy plans of the IOP windows' lent shares
	apA, apB []int64            // every rank's share of the window an AP asks about
}

func newListlessEngine(f *File) *listlessEngine {
	return &listlessEngine{f: f}
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

// setView performs fileview caching: every rank broadcasts its encoded
// (compact, tree-proportional) fileview once, and decides once whether
// the views are disjoint.  No collective access sends a view again.
func (e *listlessEngine) setView() error {
	f := e.f
	e.plans = planCache{}
	// Compile (or fetch) the fileview's copy program: the memoized,
	// flat-array counterpart of the walk, keyed by the same encoded
	// tree the view registration payload carries.  Replacing the
	// pointer here is the invalidation: the previous view's program
	// ages out of the cache LRU.
	e.prog = f.lookupProgram(nil, f.v.ftype)
	e.own = listlessViewCursor{e: e}
	e.own.cur.Reset(f.v.ftype, e.prog)
	payload := encodeView(&f.v)
	f.Stats.ViewBytesSent += int64(len(payload))
	parts := f.p.Allgather(payload)
	e.remote = make([]remoteView, f.p.Size())
	for r, part := range parts {
		e.remote[r] = decodeView(r, part)
		rv := &e.remote[r]
		rv.prog = f.lookupProgram(part[8:], rv.ftype)
		rv.cur.Reset(rv.ftype, rv.prog)
	}
	e.disjoint = viewsApart(e.remote)
	e.apA, e.apB = make([]int64, len(parts)), make([]int64, len(parts))
	return nil
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

// Engine-neutral navigation uses O(depth) flattening-on-the-fly calls.

func (e *listlessEngine) dataToFileStart(d int64) int64 {
	return e.f.v.disp + fotf.StartPos(e.f.v.ftype, d)
}

func (e *listlessEngine) dataToFileEnd(d int64) int64 {
	return e.f.v.disp + fotf.EndPos(e.f.v.ftype, d)
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

func (vc *listlessViewCursor) eachRun(c int64, b *segBuilder) {
	b.disp = vc.e.f.v.disp
	vc.cur.Runs(vc.pos, vc.pos+c, b.onRuns)
	vc.pos += c
}

func (vc *listlessViewCursor) fuses(mem *memState) bool {
	return vc.e.prog != nil && mem.prog != nil
}

// eachUserRun cuts the fileview program and the memtype program in
// lockstep: no packed copy of the data exists, the pieces index the user
// buffer.
func (vc *listlessViewCursor) eachUserRun(c int64, mem *memState, skip int64, b *segBuilder) {
	fotf.RunsFused(vc.e.prog, vc.pos, -vc.e.f.v.disp, mem.prog, skip, 0, c, b.onPiece)
	vc.pos += c
}

// ---- Collective access: nothing but file data moves (§3.2.3). ----

// listlessAPState navigates this rank's own fileview per window.
type listlessAPState struct {
	e     *listlessEngine
	pl    *collPlan
	acc   *collAccess
	fused bool // IOPs move this access in place: the own IOP...
	lent  bool // ... and, in-process, every other (apSetup lent it)
}

// apSetup sends no view and no ol-list: setView exchanged the views
// once.  In-process it lends the access to every other IOP whose domain
// holds some of it, in one message each (collPlan.lends), for writes and
// reads alike: a typed loan when the access fuses, so that the IOP moves
// this rank's shares of buffered windows in place as it moves its own,
// else a pack loan, and the shares travel as chunks.  Over a wire every
// remote share travels as a chunk.
func (e *listlessEngine) apSetup(pl *collPlan, acc *collAccess) apState {
	f := e.f
	s := &listlessAPState{e: e, pl: pl, acc: acc, fused: e.fuses(acc)}
	if f.p.Wired() {
		return s
	}
	var l *memLoan // nil: a pack loan
	if s.fused {
		own := acc.loan()
		l, s.lent = &own, true
	}
	for i := 0; i < f.p.Size(); i++ {
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

// inPlace is the memory side of the rule allSparse applies: a direct
// window's own batch writes and reads a share where it lies in the user
// buffer when the memory is contiguous, or the runs of a compiled memtype
// are not page-dense and, for a read, no data bytes of the memtype meet,
// which would be filled in no set order (the rule fuses applies).
// Everything else — short runs, no program — is packed.
func (s *listlessAPState) inPlace(a, b int64) bool {
	acc, mp := s.acc, s.acc.mem.prog
	if acc.mem.t.ContiguousTiled() {
		return true
	}
	return mp != nil && (acc.write || mp.Disjoint(acc.mem.count)) && !shareDense(mp, a-acc.d0, b-acc.d0)
}

// window is this rank's share of a buffered window: a direct one moves
// no byte through an IOP, so the exchange sees it empty.
func (s *listlessAPState) window(winLo, winHi int64) (a, b int64) {
	a, b, direct := s.share(winLo, winHi)
	if direct {
		return a, a
	}
	return a, b
}

// share is this rank's share [a, b) of window [winLo, winHi) and whether
// the window is direct, which the rank decides as the window's IOP does:
// allSparse over every rank's share, from the plan and the cached views.
func (s *listlessAPState) share(winLo, winHi int64) (a, b int64, direct bool) {
	e, self := s.e, s.e.f.p.Rank()
	e.windowShares(s.pl, winLo, winHi, e.apA, e.apB)
	a, b = e.apA[self], e.apB[self]
	return a, b, a < b && e.allSparse(e.apA, e.apB, s.acc.write)
}

// moveDirect has the owner mover move this rank's share of window
// [winLo, winHi) when the window is direct, over the user buffer where the
// share lies there (inPlace).  A pack buffer it drew is the caller's:
// inside an epoch the batch staged from it, and the backend keeps its
// bytes until the epoch ends, so it goes to File.kept (the user buffer
// stays the collective's until WriteAtAll returns); a read whose
// destination bytes may meet holds it (File.held), for apExchange to
// unpack in data order among the chunks of buffered windows.
func (s *listlessAPState) moveDirect(winLo, winHi int64) error {
	a, b, direct := s.share(winLo, winHi)
	if !direct {
		return nil
	}
	f, acc := s.e.f, s.acc
	hold := !acc.write && (acc.mem.prog == nil || !acc.mem.prog.Disjoint(acc.mem.count))
	s.e.own.pos = a
	pb, err := f.moveOwn(&s.e.own, acc, a, b, s.inPlace(a, b), hold, winLo)
	switch {
	case pb == nil:
	case acc.write && f.epochBE != nil:
		f.kept = append(f.kept, pb)
	case hold && err == nil:
		f.held = append(f.held, heldShare{a: a, b: b, winLo: winLo, chunk: pb})
	default:
		f.bp.Put(pb)
	}
	return err
}

// listlessIOPState navigates the fileviews cached at SetView.  lent holds,
// by AP rank, the accesses this IOP moves in place: its own when it
// fuses, and the typed loans it took; nil where an AP's shares travel as
// chunks.  free is a freelist of released windows: the window loop holds
// at most two in flight, so reusing them (with their apA/apB slices)
// keeps the steady state allocation-free.  window and release are both
// called on the collective's main goroutine only.
type listlessIOPState struct {
	e     *listlessEngine
	pl    *collPlan
	write bool
	lent  []*memLoan
	free  []*listlessIOPWindow
	nwin  int // windows opened so far: the next one's index
}

// iopSetup takes, in-process, the loan of every AP that lends this IOP
// its access (collPlan.lends), before the first window: a loan's view
// side is that AP's cached fileview, compiled as surely as the AP's own
// copy is, since the two are one tree.
func (e *listlessEngine) iopSetup(pl *collPlan, acc *collAccess) (iopState, error) {
	f, self := e.f, e.f.p.Rank()
	s := &listlessIOPState{e: e, pl: pl, write: acc.write, lent: make([]*memLoan, f.p.Size())}
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

// dataAt maps an absolute file offset to rank r's access data offset via
// its cached fileview, clipped to r's access range.
func (e *listlessEngine) dataAt(pl *collPlan, r int, x int64) int64 {
	rv := &e.remote[r]
	da := rv.edge.bufToData(rv.ftype, x-rv.disp)
	lo, hi := pl.d0s[r], pl.d0s[r]+pl.ds[r]
	if da < lo {
		return lo
	}
	if da > hi {
		return hi
	}
	return da
}

// windowShares sets apA[r], apB[r] to rank r's share of window [winLo,
// winHi), for every rank, and returns their sum.
func (e *listlessEngine) windowShares(pl *collPlan, winLo, winHi int64, apA, apB []int64) (tot int64) {
	for r := range apA {
		if pl.ds[r] == 0 {
			// Must be reset explicitly: a recycled window may hold
			// stale ranges here.
			apA[r], apB[r] = 0, 0
			continue
		}
		apA[r], apB[r] = e.dataAt(pl, r, winLo), e.dataAt(pl, r, winHi)
		tot += apB[r] - apA[r]
	}
	return tot
}

// allSparse is the direct-window rule, from the file side of the shares
// alone, so that every rank gives the same answer: every share has a
// compiled view to enumerate and is not page-dense in the file.  One
// dense share keeps the window buffer: its many short runs are what the
// buffer is for.  A write also needs the views proved disjoint, since
// owners writing at once leave no set winner of a byte two views share
// where the window merges in rank order.
func (e *listlessEngine) allSparse(apA, apB []int64, write bool) bool {
	if write && !e.disjoint {
		return false
	}
	for r, a := range apA {
		if b := apB[r]; a < b {
			if p := e.remote[r].prog; p == nil || shareDense(p, a, b) {
				return false
			}
		}
	}
	return true
}

// listlessIOPWindow holds the per-AP data ranges of one window.
type listlessIOPWindow struct {
	s            *listlessIOPState
	idx          int // the window's place in the IOP's domain, from 0
	winLo, winHi int64
	apA, apB     []int64
	tot          int64
	dir          bool // direct: its owners move it (allSparse)
}

func (s *listlessIOPState) window(winLo, winHi int64) iopWindow {
	P := len(s.pl.ds)
	var w *listlessIOPWindow
	if n := len(s.free); n > 0 {
		w = s.free[n-1]
		s.free = s.free[:n-1]
		w.winLo, w.winHi = winLo, winHi
	} else {
		w = &listlessIOPWindow{
			s: s, winLo: winLo, winHi: winHi,
			apA: make([]int64, P), apB: make([]int64, P),
		}
	}
	w.idx = s.nwin
	s.nwin++
	w.tot = s.e.windowShares(s.pl, winLo, winHi, w.apA, w.apB)
	w.dir = s.e.allSparse(w.apA, w.apB, s.write)
	return w
}

func (w *listlessIOPWindow) direct() bool { return w.dir }

func (w *listlessIOPWindow) release() { w.s.free = append(w.s.free, w) }

func (w *listlessIOPWindow) total() int64         { return w.tot }
func (w *listlessIOPWindow) chunkLen(r int) int64 { return w.apB[r] - w.apA[r] }

// covered is the paper's one-call coverage check (§3.2.3) in two parts.
// SetView proved the views disjoint, so no file byte lies in two of them,
// and the window's exact per-AP sum is at most the bytes of the views'
// union in the window, which is at most its length: the sum reaching the
// length means every byte of the window is written.  Views not proved
// disjoint never skip the pre-read, since their sum may count a byte
// twice and miss a hole.
func (w *listlessIOPWindow) covered() bool {
	return w.s.e.disjoint && w.tot == w.winHi-w.winLo
}

// copyLent moves AP r's share [apA, apB) between its user buffer and the
// window in one pass through r's cached view program — the rank's own
// share included — fused with its memtype's where the memory layout has
// one, by the window's plan for the share where it has one (planCache).
// The condition is the one AP r's cursor answered by.
func (w *listlessIOPWindow) copyLent(buf []byte, r int, write bool) bool {
	l := w.s.lent[r]
	if l == nil {
		return false
	}
	rv := &w.s.e.remote[r]
	a, b := w.apA[r], w.apB[r]
	bias := w.winLo - rv.disp
	if l.prog == nil {
		rv.prog.CopyRange(l.contig(a, b), buf, a, b, bias, !write)
		return true
	}
	k := planKey{view: rv.prog, a: a, bias: bias, mem: l.prog, sd0: a - l.d0, n: b - a}
	switch plan := w.s.e.plans.lookup(r, w.idx, len(w.apA), k); {
	case plan != nil && write:
		plan.Copy(buf, l.buf)
	case plan != nil:
		plan.CopyBack(buf, l.buf)
	case write:
		fotf.CopyFused(buf, rv.prog, a, bias, l.buf, l.prog, a-l.d0, 0, b-a)
	default:
		fotf.CopyFused(l.buf, l.prog, a-l.d0, 0, buf, rv.prog, a, bias, b-a)
	}
	return true
}

func (w *listlessIOPWindow) copyIn(buf []byte, r int, chunk []byte) {
	rv := &w.s.e.remote[r]
	rv.cur.CopyRange(chunk, buf, w.apA[r], w.apB[r], w.winLo-rv.disp, false)
}

func (w *listlessIOPWindow) copyOut(buf []byte, r int, chunk []byte) {
	rv := &w.s.e.remote[r]
	rv.cur.CopyRange(chunk, buf, w.apA[r], w.apB[r], w.winLo-rv.disp, true)
}
