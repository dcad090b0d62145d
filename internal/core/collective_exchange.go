package core

import "repro/internal/trace"

// apExchange walks every (IOP, window) pair in the deterministic
// schedule order and, for each one containing this rank's data, packs
// and sends (write) or receives and unpacks (read) that data.  The
// engine's apCursor locates this rank's data range per window; the
// neutral code moves it and accounts the per-phase time.  An IOP the
// engine hands no cursor for moves this rank's data in place
// (iopWindow.copyLent): its own, or an access this rank lent it.
func (f *File) apExchange(pl *collPlan, acc *collAccess, ap apState, write bool) {
	d0, mem, buf := acc.d0, acc.mem, acc.buf
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
				chunk := f.recvChunk(i, winLo)
				csp := f.tr.Time(trace.PhaseCopy, winLo, b-a)
				f.eng.unpackUser(buf, chunk, mem, a-d0, b-a)
				f.Stats.CopyNs += csp.End()
				f.bp.Put(chunk) // this rank owns the received chunk; recycle it
			}
		}
	}
}

// moveAlone is this rank's part of a collective access that takes no plan
// (accessEngine.planFree): it cuts its own file range into
// collective-buffer windows and has move move its share of each.  Of n
// windows, rank r starts at window ⌊r·n/P⌋ and goes round, so that ranks
// moving at once work in different parts of the file: a batch's storage
// call locks the whole span it touches (storage.Mem, and the I/O servers'
// range locks).  A read whose destination bytes may meet
// (collAccess.meets) goes in data order, so that the later of two bytes
// that share a buffer offset wins.  A failed batch ends the moves and is
// voted as an IOP window's fault of this rank.
func (f *File) moveAlone(acc *collAccess, move func(winLo, winHi int64) error) *CollectiveError {
	if acc.d == 0 {
		return nil
	}
	lo, hi := f.eng.dataToFileStart(acc.d0), f.eng.dataToFileEnd(acc.d0+acc.d)
	win := int64(f.opts.collBufSize)
	n := (hi - lo + win - 1) / win
	first := int64(f.p.Rank()) * n / int64(f.p.Size())
	if acc.meets() {
		first = 0
	}
	for k := int64(0); k < n; k++ {
		winLo := lo + (first+k)%n*win
		if err := move(winLo, min(winLo+win, hi)); err != nil {
			return &CollectiveError{Rank: f.p.Rank(), Phase: PhaseIOPWindow, Err: err}
		}
	}
	return nil
}
