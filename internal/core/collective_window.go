package core

import (
	"time"

	"repro/internal/storage"
	"repro/internal/trace"
)

// The IOP window loop.  Each IOP walks its file domain in CollBufSize
// windows; for every window it (write) optionally pre-reads the window,
// receives and merges each AP's chunk, and writes the window back, or
// (read) reads the window and sends each AP its portion.
//
// The loop (iopPipelined) is a double-buffered pipeline over two window
// buffers.  Window k+1's pre-read and window k-1's write-back run in the
// background while window k's AP exchange and copying proceed on the
// main goroutine, overlapping storage time with communication time.
// Safe because windows are disjoint file ranges, backends accept
// concurrent access, and all MPI traffic stays on the main goroutine
// (preserving per-pair message order).
//
// The pipeline's steady state is allocation-free: the two window
// buffers come from the pool, each slot owns one persistent worker
// goroutine fed by reusable channels of value structs (no per-window
// goroutines, channels, or window descriptors), and the engines recycle
// their per-window state via iopWindow.release.
//
// All Stats fields are updated on the main goroutine only; background
// I/O durations travel back through the reply tokens.

// iopProcess runs this rank's IOP role: engine setup (the list-based
// engine receives one access list from every AP — this must happen even
// for an empty domain, to drain the AP phase-1 messages), then the
// window loop over the domain.  Failures come back phase-attributed for
// the error-agreement vote.
func (f *File) iopProcess(pl *collPlan, acc *collAccess, write bool) *CollectiveError {
	ssp := f.tr.Begin(trace.PhaseIOPSetup, trace.NoWindow, 0)
	iop, err := f.eng.iopSetup(pl, acc)
	ssp.End()
	if err != nil {
		return &CollectiveError{Rank: f.p.Rank(), Phase: PhaseIOPSetup, Err: err}
	}
	domLo, domHi := pl.domain(f.p.Rank())
	if domLo >= domHi {
		return nil
	}
	winSize := min(int64(f.opts.CollBufSize), domHi-domLo)
	if err := f.iopPipelined(iop, domLo, domHi, winSize, write); err != nil {
		return &CollectiveError{Rank: f.p.Rank(), Phase: PhaseIOPWindow, Err: err}
	}
	return nil
}

// copySelf moves this rank's own share of one window (n bytes) between
// the user buffer and the window buffer w without a message, when the
// engine can, and accounts it as copy time.  It reports false when the
// share travels like any other AP's.
func (f *File) copySelf(iw iopWindow, w []byte, winLo, n int64, write bool) bool {
	csp := f.tr.Begin(trace.PhaseCopy, winLo, n)
	t0 := time.Now()
	if !iw.copySelf(w, write) {
		return false
	}
	csp.End()
	f.copySince(t0)
	return true
}

// iopExchangeWrite receives every AP's chunk for one window and merges
// it into the window buffer w, accounting exchange and copy time.  The
// received chunks are owned by this rank (SendNoCopy transfers
// ownership end-to-end) and are returned to the pool after merging; the
// rank's own share has no chunk when the engine fuses it (copySelf).
// winLo annotates the trace spans with the window's file offset.
func (f *File) iopExchangeWrite(iw iopWindow, w []byte, winLo int64) {
	for r := 0; r < f.p.Size(); r++ {
		n := iw.chunkLen(r)
		if n == 0 || r == f.p.Rank() && f.copySelf(iw, w, winLo, n, true) {
			continue
		}
		esp := f.tr.Begin(trace.PhaseExchange, winLo, 0)
		t0 := time.Now()
		chunk, _, _ := f.p.Recv(r, tagCollData)
		t1 := time.Now()
		esp.EndBytes(int64(len(chunk)))
		csp := f.tr.Begin(trace.PhaseCopy, winLo, int64(len(chunk)))
		iw.copyIn(w, r, chunk)
		csp.End()
		f.bp.Put(chunk)
		en, cn := t1.Sub(t0).Nanoseconds(), time.Since(t1).Nanoseconds()
		f.Stats.ExchangeNs += en
		f.Stats.CopyNs += cn
		f.om.exchangeNs.Add(en)
		f.om.copyNs.Add(cn)
	}
}

// iopExchangeRead extracts every AP's portion of the window buffer w
// and sends it, accounting copy and exchange time.  Chunk ownership
// passes to the transport and onward to the receiving AP, which
// recycles it after unpacking.
func (f *File) iopExchangeRead(iw iopWindow, w []byte, winLo int64) {
	for r := 0; r < f.p.Size(); r++ {
		n := iw.chunkLen(r)
		if n == 0 || r == f.p.Rank() && f.copySelf(iw, w, winLo, n, false) {
			continue
		}
		csp := f.tr.Begin(trace.PhaseCopy, winLo, n)
		t0 := time.Now()
		chunk := f.bp.Get(int(n))
		iw.copyOut(w, r, chunk)
		t1 := time.Now()
		csp.End()
		esp := f.tr.Begin(trace.PhaseExchange, winLo, n)
		f.p.SendNoCopy(r, tagCollData, chunk)
		esp.End()
		cn, en := t1.Sub(t0).Nanoseconds(), time.Since(t1).Nanoseconds()
		f.Stats.CopyNs += cn
		f.Stats.ExchangeNs += en
		f.om.copyNs.Add(cn)
		f.om.exchangeNs.Add(en)
	}
}

// ioToken carries the result of background storage access through the
// pipeline's channels: its error and its duration.
type ioToken struct {
	err error
	ns  int64
}

// pipeReq is one request to a slot worker.
type pipeReq struct {
	lo, hi int64
	kind   uint8 // pipePrep or pipeWrite
	read   bool  // pipePrep: pre-read the window into the slot buffer
}

const (
	pipePrep  = uint8(iota) // prepare the slot for a window (optional pre-read)
	pipeWrite               // write the slot buffer back to storage
)

// pipeSlot is one of the two window buffers with its persistent worker.
// Requests are processed FIFO, which encodes the slot discipline: a
// window's prep (and therefore its pre-read) cannot start before the
// slot's previous write-back finished.  req has capacity 2 — at most
// one outstanding write-back plus one prep are ever queued — so the
// main goroutine never blocks enqueueing.
type pipeSlot struct {
	buf  []byte
	req  chan pipeReq // main → worker
	done chan ioToken // worker → main: prep complete, slot buffer ready
	fin  chan ioToken // worker → main: trailing write-back result at exit
}

// slotWorker is a slot's persistent background goroutine.  Write-back
// errors and durations are carried into the next prep reply (or the fin
// token at shutdown), mirroring the slot hand-over semantics: whoever
// waits for the slot learns the fate of its previous write-back.
func (f *File) slotWorker(s *pipeSlot) {
	var carry ioToken
	for r := range s.req {
		switch r.kind {
		case pipeWrite:
			bsp := f.tr.BeginIO(trace.PhaseWriteBack, r.lo, r.hi-r.lo)
			t0 := time.Now()
			_, err := f.sh.b.WriteAt(s.buf[:r.hi-r.lo], r.lo)
			bsp.End()
			carry.ns += time.Since(t0).Nanoseconds()
			if carry.err == nil {
				carry.err = err
			}
		case pipePrep:
			t := carry
			carry = ioToken{}
			if t.err == nil && r.read {
				rsp := f.tr.BeginIO(trace.PhasePreRead, r.lo, r.hi-r.lo)
				t0 := time.Now()
				err := storage.ReadFull(f.sh.b, s.buf[:r.hi-r.lo], r.lo)
				rsp.End()
				t.err = err
				t.ns += time.Since(t0).Nanoseconds()
			}
			s.done <- t
		}
	}
	s.fin <- carry
}

// pipeWindow describes one in-flight window (a value; the pipeline
// holds at most two).
type pipeWindow struct {
	lo, hi  int64
	iw      iopWindow
	slot    *pipeSlot
	covered bool // write: pre-read skipped
}

// iopPipelined is the double-buffered window loop.  Window k+1's prep
// request queues behind its slot's previous write-back (windows k+1 and
// k-1 share a slot), so at most two windows are ever in flight; the
// main goroutine does all exchange and copying and hands write-backs to
// the slot workers.
func (f *File) iopPipelined(iop iopState, domLo, domHi, winSize int64, write bool) error {
	var slots [2]*pipeSlot
	for i := range slots {
		s := &pipeSlot{
			buf:  f.bp.Get(int(winSize)),
			req:  make(chan pipeReq, 2),
			done: make(chan ioToken, 1),
			fin:  make(chan ioToken, 1),
		}
		slots[i] = s
		go f.slotWorker(s)
	}

	nextSlot := 0
	nextLo := domLo

	// mk prepares the next non-empty window, or ok=false when the
	// domain is exhausted.  Empty windows are skipped without consuming
	// a slot.  iop.window calls stay on the main goroutine, in order.
	mk := func() (pipeWindow, bool) {
		for nextLo < domHi {
			winLo := nextLo
			winHi := min(winLo+winSize, domHi)
			nextLo = winHi
			iw := iop.window(winLo, winHi)
			if iw.total() == 0 {
				iw.release()
				continue
			}
			pw := pipeWindow{lo: winLo, hi: winHi, iw: iw, slot: slots[nextSlot]}
			nextSlot = 1 - nextSlot
			if write && !f.opts.DisableMergeCheck {
				pw.covered = iw.covered()
			}
			pw.slot.req <- pipeReq{lo: winLo, hi: winHi, kind: pipePrep, read: !write || !pw.covered}
			return pw, true
		}
		return pipeWindow{}, false
	}

	var err error
	cur, ok := mk()
	for ok && err == nil {
		// Start window k+1's prep before touching window k: this is
		// the overlap.
		nxt, nok := mk()
		if nok {
			f.Stats.WindowsOverlapped++
			f.om.overlapped.Inc()
		}

		psp := f.tr.Begin(trace.PhasePipelineWait, cur.lo, 0)
		t := <-cur.slot.done
		psp.End()
		f.Stats.StorageNs += t.ns
		f.om.storageNs.Add(t.ns)
		if t.err != nil {
			// Unwind quiescently: consume nxt's prep reply if one was
			// issued (its slot's prior write-back folds into it), then
			// fall through to the shutdown drain below — no background
			// I/O may outlive this return, or it would race the next
			// collective on the file.
			err = t.err
			if nok {
				t2 := <-nxt.slot.done
				f.Stats.StorageNs += t2.ns
				f.om.storageNs.Add(t2.ns)
				nxt.iw.release()
			}
			cur.iw.release()
			break
		}

		w := cur.slot.buf[:cur.hi-cur.lo]
		wsp := f.tr.Begin(trace.PhaseWindow, cur.lo, cur.iw.total())
		if write {
			if cur.covered {
				f.Stats.PreReadsSkipped++
				f.om.preSkipped.Inc()
			}
			f.iopExchangeWrite(cur.iw, w, cur.lo)
			f.Stats.SieveWrites++
			f.om.sieveWrites.Inc()
			cur.slot.req <- pipeReq{lo: cur.lo, hi: cur.hi, kind: pipeWrite}
		} else {
			f.Stats.SieveReads++
			f.om.sieveReads.Inc()
			f.iopExchangeRead(cur.iw, w, cur.lo)
		}
		wsp.End()
		f.om.windows.Inc()
		cur.iw.release()
		cur, ok = nxt, nok
	}

	// Shut down: closing req makes each worker finish every queued
	// write-back, then report the trailing result and exit — the
	// pipeline is quiescent when fin has been consumed from both slots.
	for _, s := range slots {
		close(s.req)
	}
	for _, s := range slots {
		t := <-s.fin
		f.Stats.StorageNs += t.ns
		f.om.storageNs.Add(t.ns)
		if t.err != nil && err == nil {
			err = t.err
		}
		f.bp.Put(s.buf)
	}
	return err
}
