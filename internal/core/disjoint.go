package core

import (
	"repro/internal/datatype"
	"repro/internal/fotf"
	"repro/internal/storage"
)

// The two verdicts of SetView, both from what the views are made of: a
// compiled view's program groups, not its runs.  The overlap check: a
// collective write may skip a window's pre-read on its exact per-AP sum
// only when no file byte lies in two views (listlessIOPWindow.covered).
// Its cost is the groups of all views times P, and a view whose compile
// was declined is fetched from the tree a chunk at a time.  The gap check
// (viewsSparse): a collective on views whose runs lie two pages apart
// takes no plan (listlessEngine.planFree).

// viewsApart reports whether the cached views are proved disjoint: they
// share a displacement and an extent — the file-partitioning case, where
// tiling keeps one extent's verdict for the whole file — and one extent
// holds each byte at most once.  Views that differ in either are not
// compared and count as overlapping.
func viewsApart(views []remoteView) bool {
	for _, rv := range views[1:] {
		if rv.disp != views[0].disp || rv.fext != views[0].fext {
			return false
		}
	}
	ok, _ := viewsDisjoint(views, views[0].fext)
	return ok
}

// viewsSparse reports whether no share of any window of any access on the
// cached views can be page-dense (storage.PageDense): every view is
// compiled, and consecutive runs of each, tiled — from the last run of one
// instance to the first of the next too — lie at least two pages apart.
// One run has no gap, its useful bytes are its span; k >= 2 runs span more
// than 2(k-1)·PageSize >= k·PageSize.  It reads the program groups, which
// come in ascending order for a monotone view, and stops at the first
// short gap, so that views whose runs abut or interleave closely cost a
// group or two.
func viewsSparse(views []remoteView) bool {
	for i := range views {
		if !runsApart(&views[i], 2*storage.PageSize) {
			return false
		}
	}
	return true
}

// runsApart reports whether the runs of rv, tiled, lie gap bytes apart or
// more: a view with no data has no runs, and a view whose compile was
// declined is not shown to.
func runsApart(rv *remoteView, gap int64) bool {
	p := rv.prog
	switch {
	case rv.fsize == 0:
		return true
	case p == nil:
		return false
	}
	var end int64
	for i := 0; i < p.Groups(); i++ {
		off, runLen, stride, n := p.Group(i)
		if i > 0 && off-end < gap || n > 1 && stride-runLen < gap {
			return false
		}
		end = off + (n-1)*stride + runLen
	}
	first, _, _, _ := p.Group(0)
	return first+rv.fext-end >= gap
}

// viewsDisjoint reports whether the views, which share the extent ext,
// cover each byte of one extent at most once and keep their data inside
// it, so that tiling preserves that.  Each view must be monotone (every
// validated filetype is), so its groups come in ascending order with
// disjoint spans; a sweep takes the groups of all views in the order of
// their first bytes and tests each against the latest group of every
// other view, the only one of that view its span can meet.  walked counts
// the runs fetched from a tree for a view whose compile was declined: 0
// when every view compiled.
func viewsDisjoint(views []remoteView, ext int64) (ok bool, walked int64) {
	streams := make([]groupStream, len(views))
	for i := range views {
		rv := &views[i]
		t := rv.ftype
		if rv.fsize > 0 && (!t.Monotone() || t.TrueLB() < 0 || t.TrueUB() > ext) {
			return false, 0
		}
		streams[i].start(rv, &walked)
	}
	for {
		var next *groupStream
		for i := range streams {
			if s := &streams[i]; !s.done && (next == nil || s.head.off < next.head.off) {
				next = s
			}
		}
		if next == nil {
			return true, walked
		}
		for i := range streams {
			if s := &streams[i]; s != next && s.seen && groupsMeet(s.last, next.head) {
				return false, walked
			}
		}
		next.last, next.seen = next.head, true
		next.advance()
	}
}

// runGroup is n runs of runLen bytes, run k at off + k*stride, ascending:
// stride >= runLen when n > 1, and stride 0 when n == 1.
type runGroup struct{ off, runLen, stride, n int64 }

// end is one past the group's last byte.
func (g runGroup) end() int64 { return g.off + (g.n-1)*g.stride + g.runLen }

// groupsMeet reports whether a run of a and a run of b share a byte.  Two
// progressions of one stride, or a single run against a progression, are
// decided in closed form; progressions of different strides are tested
// run by run, inside the overlap of their spans only.
func groupsMeet(a, b runGroup) bool {
	if a.end() <= b.off || b.end() <= a.off {
		return false
	}
	if a.n > 1 && b.n > 1 && a.stride != b.stride {
		lo, hi := max(a.off, b.off), min(a.end(), b.end())
		ka, na := runsIn(a, lo, hi)
		kb, nb := runsIn(b, lo, hi)
		if nb < na {
			a, b, ka, na = b, a, kb, nb
		}
		for k := ka; k < ka+na; k++ {
			if groupsMeet(runGroup{a.off + k*a.stride, a.runLen, 0, 1}, b) {
				return true
			}
		}
		return false
	}
	if a.n == 1 {
		if b.n == 1 {
			return true // two runs whose spans meet
		}
		a, b = b, a
	}
	// a is a progression of stride s and b a run or one of the same
	// stride.  Run i of a meets run j of b exactly when
	//   a.off-b.off-b.runLen < (j-i)*s < a.off-b.off+a.runLen,
	// so the runs meet when some difference j-i in that open interval is
	// one that the run counts allow, i.e. in [1-a.n, b.n-1].
	s, d := a.stride, a.off-b.off
	lo := max(floorDiv(d-b.runLen, s)+1, 1-a.n)
	hi := min(floorDiv(d+a.runLen-1, s), b.n-1)
	return lo <= hi
}

// runsIn returns the first of g's runs that ends above lo and how many
// runs from it on start below hi.
func runsIn(g runGroup, lo, hi int64) (k, n int64) {
	k = max(0, floorDiv(lo-g.off-g.runLen, g.stride)+1)
	last := min(g.n-1, floorDiv(hi-1-g.off, g.stride))
	return k, max(0, last-k+1)
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// groupStream yields the run groups of one instance of a view in
// type-map order: a compiled view's program groups, a contiguous view's
// one run, and for a view whose compile was declined, the groups
// fotf.Runs emits, fetched from the tree viewRunsChunk data bytes at a
// time.  head is the next group, unless done; last is the group taken
// last, if seen.
type groupStream struct {
	prog *fotf.Program
	t    *datatype.Type // walked: the compile was declined
	gi   int            // next program group, or next in buf

	next int64      // walked: data offset the next fetch starts at
	buf  []runGroup // walked: the chunk fetched last
	emit fotf.EmitFunc

	head, last runGroup
	done, seen bool
}

// viewRunsChunk is the data bytes per fetch of a walked view: a few
// hundred groups at most, whatever the view.
const viewRunsChunk = 64 << 10

// start points the stream at the first group of rv; a walked view adds
// the runs it fetches to *walked.
func (s *groupStream) start(rv *remoteView, walked *int64) {
	switch t := rv.ftype; {
	case rv.fsize == 0:
		s.done = true
		return
	case rv.prog != nil:
		s.prog = rv.prog
	case t.ContiguousTiled():
		s.head = runGroup{t.TrueLB(), rv.fsize, 0, 1}
		return
	default:
		s.t = t
		s.emit = func(bufOff, _, runLen, stride, n int64) {
			if n == 1 {
				stride = 0
			}
			s.buf = append(s.buf, runGroup{bufOff, runLen, stride, n})
			*walked += n
		}
	}
	s.advance()
}

// advance moves head to the next group.
func (s *groupStream) advance() {
	switch {
	case s.prog != nil:
		if s.gi == s.prog.Groups() {
			s.done = true
			return
		}
		off, runLen, stride, n := s.prog.Group(s.gi)
		s.head = runGroup{off, runLen, stride, n}
	case s.t != nil:
		for s.gi == len(s.buf) {
			if s.next >= s.t.Size() {
				s.done = true
				return
			}
			s.buf, s.gi = s.buf[:0], 0
			hi := min(s.next+viewRunsChunk, s.t.Size())
			fotf.Runs(s.t, s.next, hi, s.emit)
			s.next = hi
		}
		s.head = s.buf[s.gi]
	default: // past a contiguous view's one group
		s.done = true
		return
	}
	s.gi++
}
