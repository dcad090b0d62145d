package core

import (
	"time"

	"repro/internal/trace"
)

// apExchange walks every (IOP, window) pair in the deterministic
// schedule order and, for each one containing this rank's data, packs
// and sends (write) or receives and unpacks (read) that data.  The
// engine's apCursor locates this rank's data range per window; the
// neutral code moves it and accounts the per-phase time.  An IOP the
// engine hands no cursor for is this rank itself moving its own share
// without a message (iopWindow.copySelf).
func (f *File) apExchange(pl *collPlan, acc *collAccess, ap apState, write bool) {
	d0, mem, buf := acc.d0, acc.mem, acc.buf
	myLo, myHi := pl.los[f.p.Rank()], pl.his[f.p.Rank()]
	for i := 0; i < pl.nIOP; i++ {
		domLo, domHi := pl.domain(i)
		if domHi <= myLo || domLo >= myHi || domLo == domHi {
			continue
		}
		cur := ap.cursor(i)
		if cur == nil {
			continue
		}
		for winLo := domLo; winLo < domHi; winLo += int64(f.opts.CollBufSize) {
			winHi := min(winLo+int64(f.opts.CollBufSize), domHi)
			a, b := cur.window(winLo, winHi)
			if b <= a {
				continue
			}
			if write {
				// The chunk's ownership passes to the transport at
				// SendNoCopy and onward to the receiving IOP, which
				// returns it to a pool after merging (the zero-copy
				// AP→IOP path: pack once, no intermediate copies).
				chunk := f.bp.Get(int(b - a))
				csp := f.tr.Begin(trace.PhaseCopy, winLo, b-a)
				t0 := time.Now()
				f.eng.packUser(chunk, buf, mem, a-d0, b-a)
				t1 := time.Now()
				csp.End()
				esp := f.tr.Begin(trace.PhaseExchange, winLo, b-a)
				f.p.SendNoCopy(i, tagCollData, chunk)
				esp.End()
				f.Stats.CopyNs += t1.Sub(t0).Nanoseconds()
				f.Stats.ExchangeNs += time.Since(t1).Nanoseconds()
			} else {
				esp := f.tr.Begin(trace.PhaseExchange, winLo, 0)
				t0 := time.Now()
				chunk, _, _ := f.p.Recv(i, tagCollData)
				t1 := time.Now()
				esp.EndBytes(int64(len(chunk)))
				csp := f.tr.Begin(trace.PhaseCopy, winLo, b-a)
				f.eng.unpackUser(buf, chunk, mem, a-d0, b-a)
				csp.End()
				f.bp.Put(chunk) // this rank owns the received chunk; recycle it
				f.Stats.ExchangeNs += t1.Sub(t0).Nanoseconds()
				f.Stats.CopyNs += time.Since(t1).Nanoseconds()
			}
		}
	}
}
