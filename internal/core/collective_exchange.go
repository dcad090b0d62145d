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
// (iopWindow.copyLent): its own, or an access this rank lent it.  On a
// wired world a write's share that the engine can lend (apState.lend) is
// not packed: it goes as the slices of the user buffer that hold it,
// collected in f.lent; and a read takes the shares it posted before the
// IOP phase (postShares) as completions, already in place, and unpacks
// the direct shares it holds (f.held) in data order between its chunks.
func (f *File) apExchange(pl *collPlan, acc *collAccess, ap apState, write bool) {
	d0, mem, buf := acc.d0, acc.mem, acc.buf
	posted, held := f.posted, f.held
	slices.SortFunc(held, func(x, y postedShare) int { return cmp.Compare(x.a, y.a) })
	for i := 0; i < pl.nIOP; i++ {
		domLo, domHi := pl.domain(i)
		if !pl.holds(i, f.p.Rank()) {
			continue
		}
		cur := ap.cursor(i)
		if cur == nil {
			continue
		}
		if len(posted) > 0 && posted[0].iop == i {
			posted = f.takePosted(posted, acc)
			continue
		}
		for winLo := domLo; winLo < domHi; winLo += int64(f.opts.CollBufSize) {
			winHi := min(winLo+int64(f.opts.CollBufSize), domHi)
			a, b := cur.window(winLo, winHi)
			if b <= a {
				continue
			}
			if write {
				if f.p.Wired() && f.lendShare(i, ap, a, b, winLo) {
					continue
				}
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
func (f *File) unpackHeld(held []postedShare, acc *collAccess, x int64) []postedShare {
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
// IOP domain r mod nIOP and goes round, so that ranks moving at once work
// in different domains: a batch's storage call locks the whole span it
// touches (storage.Mem, and the I/O servers' range locks).
func (f *File) apDirect(pl *collPlan, ap apState) error {
	self, win := f.p.Rank(), int64(f.opts.CollBufSize)
	for k := 0; k < pl.nIOP; k++ {
		i := (self + k) % pl.nIOP
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

// postedShare is one share of a collective read that this rank posted
// (postShares): data [a, b) of its access, which IOP iop sends for the
// window at winLo, into f.lent[lo:hi] — slices of the user buffer, or
// chunk, a pooled chunk to unpack once it has landed.  A held direct
// share (f.held) is data [a, b) of the window at winLo, read into chunk.
type postedShare struct {
	iop         int
	a, b, winLo int64
	lo, hi      int
	chunk       []byte
}

// postShares posts, on a wired world, the destination of every share of a
// collective read that another IOP will send this rank, before the IOP
// phase, so that each link reader reads it from the socket straight into
// place (mpi.Proc.Post).  The shares of one IOP are posted all or none —
// a posting takes the next frame of its IOP, and FIFO matching cannot
// skip one — and they are posted when the engine lends at least one of
// them (apState.lend): those as the slices of the user buffer that hold
// them, the rest as pooled chunks that apExchange unpacks.  An IOP none
// of whose shares is lent, and the rank's own IOP, whose chunks never
// cross a socket, post nothing, and their shares arrive as before.  The
// posted slice headers and chunks are the transport's until the read
// phase has taken every completion, or the error vote's DrainTag has
// withdrawn them; endLoan then forgets them.
func (f *File) postShares(pl *collPlan, ap apState) {
	self := f.p.Rank()
	for i := 0; i < pl.nIOP; i++ {
		if i == self || !pl.holds(i, self) {
			continue
		}
		cur := ap.cursor(i)
		if cur == nil {
			continue
		}
		first, lends := len(f.posted), false
		domLo, domHi := pl.domain(i)
		for winLo := domLo; winLo < domHi; winLo += int64(f.opts.CollBufSize) {
			winHi := min(winLo+int64(f.opts.CollBufSize), domHi)
			a, b := cur.window(winLo, winHi)
			if b <= a {
				continue
			}
			lo := len(f.lent)
			var ok bool
			f.lent, ok = ap.lend(f.lent, a, b)
			lends = lends || ok
			f.posted = append(f.posted, postedShare{iop: i, a: a, b: b, winLo: winLo, lo: lo, hi: len(f.lent)})
		}
		if !lends {
			f.posted = f.posted[:first]
			continue
		}
		for k := first; k < len(f.posted); k++ {
			ps := &f.posted[k]
			if ps.lo == ps.hi {
				ps.chunk = f.bp.Get(int(ps.b - ps.a))
				ps.lo = len(f.lent)
				f.lent = append(f.lent, ps.chunk)
				ps.hi = len(f.lent)
			}
			f.p.Post(i, tagCollData, f.lent[ps.lo:ps.hi:ps.hi])
		}
	}
}

// takePosted takes, in order, the completions of the shares at the head
// of posted, which one IOP sends, and unpacks those posted as chunks; it
// returns the shares of the IOPs after it.  A completion's bytes are
// already in place: the link reader wrote them.
func (f *File) takePosted(posted []postedShare, acc *collAccess) []postedShare {
	i := posted[0].iop
	for ; len(posted) > 0 && posted[0].iop == i; posted = posted[1:] {
		ps := &posted[0]
		esp := f.tr.Time(trace.PhaseExchange, ps.winLo, 0)
		f.p.Recv(i, tagCollData)
		f.Stats.ExchangeNs += esp.EndBytes(ps.b - ps.a)
		if ps.chunk == nil {
			continue
		}
		csp := f.tr.Time(trace.PhaseCopy, ps.winLo, ps.b-ps.a)
		f.eng.unpackUser(acc.buf, ps.chunk, acc.mem, ps.a-acc.d0, ps.b-ps.a)
		f.Stats.CopyNs += csp.End()
		f.bp.Put(ps.chunk)
		ps.chunk = nil
	}
	return posted
}
