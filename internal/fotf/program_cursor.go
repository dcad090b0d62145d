package fotf

import (
	"math"

	"repro/internal/datatype"
)

// Cursor is the resumable execution state of one call site over a
// datatype, and the one place a caller's choice between the compiled
// program and the recursive walk is made.  Collective window loops and
// sieve loops ask for ascending, usually abutting (d0, d1) windows; with
// a program the cursor remembers where the previous window ended
// (instance and group index) so the next CopyRange resumes in O(1)
// instead of re-searching.  A window that does not continue the
// previous one just repositions with a binary search — the cursor is a
// hint, never a correctness requirement.  Without a program (the type
// declined compilation, or is contiguous) every call walks the tree.
//
// The zero Cursor is invalid until Reset.
type Cursor struct {
	t  *datatype.Type
	p  *Program
	d  int64 // data offset the previous window ended at
	k  int64 // instance containing d
	gi int   // group index hint within instance k
}

// Reset points the cursor at type t and its compiled program p, which
// may be nil, and rewinds it to data offset 0.
func (c *Cursor) Reset(t *datatype.Type, p *Program) {
	c.t, c.p = t, p
	c.d, c.k, c.gi = 0, 0, 0
}

// CopyRange moves data [d0, d1) with the semantics of the package-level
// CopyRange: through the program, resuming from the previous window
// when d0 continues it, or by the walk.
func (c *Cursor) CopyRange(cb, b []byte, d0, d1, bias int64, pack bool) {
	if c.p == nil {
		CopyRange(cb, b, c.t, d0, d1, bias, pack)
		return
	}
	c.p.copyRange(cb, b, d0, d1, bias, pack, c)
}

// Runs enumerates the runs backing data [d0, d1) with the contract of
// the package-level Runs.  The program's coalesced groups emit fewer,
// longer runs than the walk: the same bytes, in fewer pieces.
func (c *Cursor) Runs(d0, d1 int64, emit EmitFunc) {
	if c.p == nil {
		Runs(c.t, d0, d1, emit)
		return
	}
	c.p.Runs(d0, d1, emit)
}

// RunCount reports how many runs Runs enumerates for data [d0, d1):
// with a program by arithmetic (Program.RunCountUpTo), without one by
// counting what the walk emits.
func (c *Cursor) RunCount(d0, d1 int64) int64 {
	if c.p == nil {
		var runs int64
		Runs(c.t, d0, d1, func(_, _, _, _, n int64) { runs += n })
		return runs
	}
	return c.p.RunCountUpTo(d0, d1, math.MaxInt64)
}
