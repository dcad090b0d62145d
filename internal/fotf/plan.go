package fotf

import (
	"fmt"
	"math"
	"sync"
)

// Fused-copy plans: CopyFused, paired once.
//
// CopyFused decides at every step which shape the two runs in front of
// it have — a batch for the kernel, a piece, a few kilobytes through the
// stack — and on two irregular programs most steps are single pieces, so
// the deciding is the copy's cost, not the bytes.  A caller that moves
// the same range again (an IOP window that every collective of an access
// pattern visits with the same geometry) can pay the deciding once:
// PlanFused runs the same lockstep with the copies taken out and keeps
// what it would have done, and the plan replays it.
//
// A plan is two tables in step order.  A single piece is a 12-byte entry
// (planPiece: uint32 indices into the two buffers and a uint32 length);
// a batched kernRuns call stays one entry of its own (planKern), so a
// regular stretch keeps its kernel.  Everything a plan touches is known
// when it is recorded, so a replay checks both buffers once, not once per
// piece, and panics before it moves a byte if either is too short.  The
// plan holds indices, not buffers: it replays over any buffers of the
// recorded geometry, and in either direction — Copy moves the bytes from
// src to dst as CopyFused did, CopyBack moves the same bytes from dst to
// src, which is CopyFused with the two sides exchanged.
//
// A plan is declined (PlanFused returns nil) where it would not pay:
//   - every step is batched, or every piece has one length: the lockstep
//     takes those at the kernel's speed and a table would add memory only;
//   - the mean piece is under minPlanPiece bytes: a copy that short costs
//     about what deciding it does;
//   - an index or length does not fit in 32 bits;
//   - the plan would hold more bytes than half the data it moves.

// minPlanPiece is the mean piece length below which a plan is declined:
// measured on the irr geometry (pieces of 8 to 248 bytes), replaying
// from the table beats the lockstep by 1.75x at a mean of 66 bytes, and
// by less as pieces shorten towards the cost of a memmove call.
const minPlanPiece = 32

// planPiece is one piece: ln bytes at index so of the source buffer and
// at index do of the destination buffer.
type planPiece struct{ do, so, ln uint32 }

// planKern is one batched step: kernRuns' arguments, run before
// pieces[at].
type planKern struct {
	at                 int
	do, dstride, dwrap int64
	so, sstride, swrap int64
	bl, q, k           int64
}

// FusedPlan is a recorded CopyFused: see the top of plan.go.  It is
// immutable and safe for concurrent use.
type FusedPlan struct {
	pieces     []planPiece
	kerns      []planKern
	dEnd, sEnd int64 // one past the highest index a step touches in dst, in src
}

// planRecorder is what the lockstep hands its steps to when it records
// (lockstep with rec set); a nil recorder moves them instead.
type planRecorder struct {
	pieces     []planPiece
	kerns      []planKern
	bytes      int64 // bytes in pieces
	len0       uint32
	mixed      bool // the pieces have more than one length
	overflow   bool // an index or length does not fit in a planPiece, or lies below 0
	dEnd, sEnd int64
}

// piece records one piece of c bytes.
func (r *planRecorder) piece(do, so, c int64) {
	if do < 0 || so < 0 || do+c > math.MaxUint32 || so+c > math.MaxUint32 {
		r.overflow = true
		return
	}
	ln := uint32(c)
	if len(r.pieces) == 0 {
		r.len0 = ln
	} else if ln != r.len0 {
		r.mixed = true
	}
	r.pieces = append(r.pieces, planPiece{uint32(do), uint32(so), ln})
	r.bytes += c
	r.dEnd, r.sEnd = max(r.dEnd, do+c), max(r.sEnd, so+c)
}

// kernRuns is kernRuns for the lockstep: it moves the runs when r is nil
// and records them otherwise, with the span they cover on each side.
func (r *planRecorder) kernRuns(dst []byte, do, dstride, dwrap int64, src []byte, so, sstride, swrap, bl, q, k int64) {
	if r == nil {
		kernRuns(dst, do, dstride, dwrap, src, so, sstride, swrap, bl, q, k)
		return
	}
	dlo, dhi, dok := runsSpan(do, dstride, dwrap, bl, q, k)
	slo, shi, sok := runsSpan(so, sstride, swrap, bl, q, k)
	if !dok || !sok || dlo < 0 || slo < 0 {
		r.overflow = true
		return
	}
	r.kerns = append(r.kerns, planKern{len(r.pieces), do, dstride, dwrap, so, sstride, swrap, bl, q, k})
	r.dEnd, r.sEnd = max(r.dEnd, dhi), max(r.sEnd, shi)
}

// runsSpan returns the lowest index and one past the highest that the
// k stretches of q runs of bl bytes of a kernRuns side cover, or false
// when they spread wider than 32 bits address.
func runsSpan(o, stride, wrap, bl, q, k int64) (lo, hi int64, ok bool) {
	ilo, ihi, iok := reach(stride, q, math.MaxUint32)
	jlo, jhi, jok := reach(q*stride+wrap, k, math.MaxUint32)
	return o + ilo + jlo, o + ihi + jhi + bl, iok && jok
}

// PlanFused records what CopyFused with the same arguments would do — the
// same lockstep, moving nothing — as a plan whose Copy then has
// CopyFused's effect on any buffers of this geometry.  It returns nil
// where a plan would not pay (see the top of plan.go).  The recording's
// tables are reused from plan to plan (recorders), so a caller recording
// many plans allocates the tables it keeps and nothing else.
func PlanFused(dp *Program, dd0, dbias int64, sp *Program, sd0, sbias, n int64) *FusedPlan {
	r := recorders.Get().(*planRecorder)
	defer recorders.Put(r)
	*r = planRecorder{pieces: r.pieces[:0], kerns: r.kerns[:0]}
	lockstep(nil, dp, dd0, dbias, nil, sp, sd0, sbias, n, r)
	if !r.pays(n) {
		return nil
	}
	return r.plan()
}

var recorders = sync.Pool{New: func() any { return new(planRecorder) }}

// pays applies the decline rules to a recording of n data bytes.
func (r *planRecorder) pays(n int64) bool {
	np := int64(len(r.pieces))
	return !r.overflow && np > 0 && r.mixed && r.bytes >= minPlanPiece*np &&
		np*pieceBytes+int64(len(r.kerns))*kernBytes <= n/2
}

// plan returns the recording as a plan whose tables are exact copies:
// the recording's append slack stays behind.
func (r *planRecorder) plan() *FusedPlan {
	p := &FusedPlan{pieces: append([]planPiece(nil), r.pieces...), dEnd: r.dEnd, sEnd: r.sEnd}
	if len(r.kerns) > 0 {
		p.kerns = append([]planKern(nil), r.kerns...)
	}
	return p
}

// The table entries' sizes, as Bytes counts them.
const pieceBytes, kernBytes = 12, 80

// Bytes reports the memory the plan's tables hold.
func (p *FusedPlan) Bytes() int64 {
	return int64(len(p.pieces))*pieceBytes + int64(len(p.kerns))*kernBytes
}

// Copy moves the planned bytes from src to dst: what CopyFused with the
// recorded arguments does to these buffers.
func (p *FusedPlan) Copy(dst, src []byte) { p.replay(dst, src, false) }

// CopyBack moves the planned bytes the other way, from dst to src: what
// CopyFused does with the two recorded sides exchanged.  dst and src name
// the buffers as in Copy.
func (p *FusedPlan) CopyBack(dst, src []byte) { p.replay(dst, src, true) }

func (p *FusedPlan) replay(dst, src []byte, back bool) {
	if int64(len(dst)) < p.dEnd || int64(len(src)) < p.sEnd {
		panic(fmt.Sprintf("fotf: plan of %d pieces needs dst[%d] and src[%d], has dst[%d] and src[%d]",
			len(p.pieces), p.dEnd, p.sEnd, len(dst), len(src)))
	}
	i := 0
	for j := range p.kerns {
		s := &p.kerns[j]
		movePieces(dst, src, p.pieces[i:s.at], back)
		i = s.at
		if back {
			kernRuns(src, s.so, s.sstride, s.swrap, dst, s.do, s.dstride, s.dwrap, s.bl, s.q, s.k)
		} else {
			kernRuns(dst, s.do, s.dstride, s.dwrap, src, s.so, s.sstride, s.swrap, s.bl, s.q, s.k)
		}
	}
	movePieces(dst, src, p.pieces[i:], back)
}
