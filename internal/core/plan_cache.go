package core

import "repro/internal/fotf"

// The fused-copy plan cache.  An IOP moves every lent share of a buffered
// window with fotf.CopyFused, which pairs the view program with the
// memtype program step by step.  A workload that repeats its collective —
// the same view, memtype and offsets, op after op — has the IOP pair the
// same two programs over the same ranges every time.  The cache keeps, per
// (lender rank, window index), the plan of that pairing
// (fotf.PlanFused), and copyLent replays it in place of the lockstep, a
// write's plan reversed for a read.
//
// A slot's key is everything the pairing depends on: the two programs,
// the share's first view data offset, the window's bias and the share's
// first memtype data offset and length.  The first time a slot meets a
// key it only remembers it; the second time it records the plan (or
// learns that fotf declines it); from then on it replays.  So a one-off
// geometry, or one that alternates between two keys, pays nothing but a
// comparison.  A slot meeting a new key drops its plan; SetView drops
// them all.  The plans of one handle hold at most maxPlanBytes.  The
// cache lives with the listless engine and is used on the collective's
// main goroutine only.

// maxPlanBytes bounds the plan tables one handle keeps.  fotf keeps a
// plan under half the bytes it moves (12 bytes a piece of at least 32 on
// average), so this covers collectives of tens of MiB per IOP; past it,
// further windows keep the lockstep.
const maxPlanBytes = 16 << 20

// planKey is what a lent share's fused copy depends on besides the
// buffers.
type planKey struct {
	view, mem       *fotf.Program
	a, bias, sd0, n int64
}

type planSlot struct {
	key   planKey
	built bool // key was met twice: plan is its plan, or nil where fotf declined it
	plan  *fotf.FusedPlan
}

type planCache struct {
	slots []planSlot // by window index * ranks + lender rank
	bytes int64      // held by the slots' plans
}

// lookup returns the plan for lender r's share of window idx, of a world
// of P ranks, under key k — nil where the lockstep is to run instead.
func (c *planCache) lookup(r, idx, P int, k planKey) *fotf.FusedPlan {
	i := idx*P + r
	if i >= len(c.slots) {
		c.slots = append(c.slots, make([]planSlot, i+1-len(c.slots))...)
	}
	s := &c.slots[i]
	switch {
	case s.key != k:
		if s.plan != nil {
			c.bytes -= s.plan.Bytes()
		}
		*s = planSlot{key: k}
	case !s.built:
		s.built = true
		if p := fotf.PlanFused(k.view, k.a, k.bias, k.mem, k.sd0, 0, k.n); p != nil && c.bytes+p.Bytes() <= maxPlanBytes {
			s.plan = p
			c.bytes += p.Bytes()
		}
	}
	return s.plan
}
