package core

import (
	"cmp"
	"slices"

	"repro/internal/trace"
)

// apExchange walks every (IOP, window) pair in the deterministic
// schedule order and, for each one containing this rank's data, packs
// and sends (write) or receives and unpacks (read) that data.  The
// engine's apCursor locates this rank's data range per window; the
// neutral code moves it and accounts the per-phase time.  An IOP the
// engine hands no cursor for moves this rank's data in place
// (iopWindow.copyLent): its own, or an access this rank lent it.  A read
// unpacks the direct shares it holds (f.held) in data order between its
// chunks.
func (f *File) apExchange(pl *collPlan, acc *collAccess, ap apState, write bool) {
	d0, mem, buf := acc.d0, acc.mem, acc.buf
	held := f.held
	slices.SortFunc(held, func(x, y heldShare) int { return cmp.Compare(x.a, y.a) })
	for i := 0; i < f.p.Size(); i++ {
		domLo, domHi := pl.domain(i)
		if !pl.holds(i, f.p.Rank()) {
			continue
		}
		cur := ap.cursor(i)
		if cur == nil {
			continue
		}
		for winLo := domLo; winLo < domHi; winLo += int64(f.opts.collBufSize) {
			winHi := min(winLo+int64(f.opts.collBufSize), domHi)
			a, b := cur.window(winLo, winHi)
			if b <= a {
				continue
			}
			if write {
				chunk := f.bp.Get(int(b - a))
				csp := f.tr.Time(trace.PhaseCopy, winLo, b-a)
				f.eng.packUser(chunk, buf, mem, a-d0, b-a)
				f.Stats.CopyNs += csp.End()
				f.sendChunk(i, chunk, winLo)
			} else {
				held = f.unpackHeld(held, acc, a)
				chunk := f.recvChunk(i, winLo)
				csp := f.tr.Time(trace.PhaseCopy, winLo, b-a)
				f.eng.unpackUser(buf, chunk, mem, a-d0, b-a)
				f.Stats.CopyNs += csp.End()
				f.bp.Put(chunk) // this rank owns the received chunk; recycle it
			}
		}
	}
	f.unpackHeld(held, acc, d0+acc.d)
}

// unpackHeld unpacks the held direct shares at the head of held that start
// before data offset x, returns their buffers to the pool, and returns the
// rest.
func (f *File) unpackHeld(held []heldShare, acc *collAccess, x int64) []heldShare {
	for ; len(held) > 0 && held[0].a < x; held = held[1:] {
		h := &held[0]
		csp := f.tr.Time(trace.PhaseCopy, h.winLo, h.b-h.a)
		f.eng.unpackUser(acc.buf, h.chunk, acc.mem, h.a-acc.d0, h.b-h.a)
		f.Stats.CopyNs += csp.End()
		f.bp.Put(h.chunk)
		h.chunk = nil
	}
	return held
}

// apDirect has this rank move its share of every direct window itself
// (apState.moveDirect), before its IOP phase: no IOP moves a direct
// window, so none of its bytes crosses the rank fabric.  Rank r starts at
// IOP domain r and goes round, so that ranks moving at once work
// in different domains: a batch's storage call locks the whole span it
// touches (storage.Mem, and the I/O servers' range locks).
func (f *File) apDirect(pl *collPlan, ap apState) error {
	self, P, win := f.p.Rank(), f.p.Size(), int64(f.opts.collBufSize)
	for k := 0; k < P; k++ {
		i := (self + k) % P
		if !pl.holds(i, self) {
			continue
		}
		domLo, domHi := pl.domain(i)
		for winLo := domLo; winLo < domHi; winLo += win {
			if err := ap.moveDirect(winLo, min(winLo+win, domHi)); err != nil {
				return err
			}
		}
	}
	return nil
}

// heldShare is a direct share of a collective read that the owner mover
// read into a pooled chunk (apState.moveDirect): data [a, b) of the
// window at winLo, which apExchange unpacks in data order.
type heldShare struct {
	a, b, winLo int64
	chunk       []byte
}
