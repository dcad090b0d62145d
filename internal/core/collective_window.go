package core

import (
	"repro/internal/storage"
	"repro/internal/trace"
)

// The IOP window loop.  Each IOP walks its file domain in 1 MiB
// windows; for every window it (write) optionally pre-reads the window,
// receives and merges each AP's chunk, and writes the window back, or
// (read) reads the window and sends each AP its portion.
//
// An AP's share of a window is either a chunk, packed by the AP and sent
// (or, on a read, sent to it and unpacked there), or moved in place
// between the window and the AP's user buffer: the IOP's own, and
// in-process the buffer every AP whose memory compiles lent it for the
// collective (memLoan).
//
// A window gathers the APs' shares in a 1 MiB buffer so that many short
// runs become one large backend call: that is what a planned collective
// is for.  A collective on views whose runs leave nothing to gather takes
// no plan and no window loop (accessEngine.planFree).
//
// The loop (iopPipelined) is a double-buffered pipeline over two slots.
// Window k+1's pre-read and window k-1's write-back run in the
// background while window k's AP exchange and copying proceed on the
// main goroutine, overlapping storage time with communication time.
// Safe because windows are disjoint file ranges, backends accept
// concurrent access, and all MPI traffic stays on the main goroutine
// (preserving per-pair message order).
//
// The pipeline's steady state is allocation-free: the window buffers
// and chunks come from the pool, each slot owns one persistent worker
// goroutine fed by reusable channels of value structs (no per-window
// goroutines, channels, or window descriptors), and the engines recycle
// their per-window state via iopWindow.release.  A slot starts with the
// first window it takes, so an IOP whose windows are all empty starts
// none.
//
// Inside an epoch a write-back stages, and the epoch lends the backend
// its bytes until it ends (storage.EpochBackend): the I/O-server client
// keeps them to replay, not a copy.  So a staged window is not reused.
// The slot hands its buffer to File.kept with the write-back and takes a
// fresh one from the pool for its next window.  What is kept goes back to
// the pool once the epoch has ended on this rank (unkeep).
//
// All Stats fields are updated on the main goroutine only; background
// I/O durations travel back through the reply tokens.  Every duration
// is what its span's End returned (trace.Tracer.Time: one clock read at
// each end, tracer or not).

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
	winSize := min(int64(f.opts.collBufSize), domHi-domLo)
	if err := f.iopPipelined(iop, domLo, domHi, winSize, write); err != nil {
		return &CollectiveError{Rank: f.p.Rank(), Phase: PhaseIOPWindow, Err: err}
	}
	return nil
}

// copyLent moves AP r's share of one window (n bytes) between its user
// buffer and the window buffer w without a message, when the engine can,
// and accounts it as copy time.  It reports false when the share travels
// as a chunk.
func (f *File) copyLent(iw iopWindow, w []byte, winLo, n int64, r int, write bool) bool {
	csp := f.tr.Time(trace.PhaseCopy, winLo, n)
	if !iw.copyLent(w, r, write) {
		return false
	}
	f.Stats.CopyNs += csp.End()
	return true
}

// iopExchangeWrite merges every AP's share of one window into the window
// buffer w — in place where it can (copyLent), else by receiving its
// chunk — accounting exchange and copy time.  The received chunks are
// owned by this rank (SendNoCopy transfers ownership end-to-end) and are
// returned to the pool after merging.  winLo annotates the trace spans
// with the window's file offset.
func (f *File) iopExchangeWrite(iw iopWindow, w []byte, winLo int64) {
	for r := 0; r < f.p.Size(); r++ {
		n := iw.chunkLen(r)
		if n == 0 || f.copyLent(iw, w, winLo, n, r, true) {
			continue
		}
		chunk := f.recvChunk(r, winLo)
		csp := f.tr.Time(trace.PhaseCopy, winLo, int64(len(chunk)))
		iw.copyIn(w, r, chunk)
		f.Stats.CopyNs += csp.End()
		f.bp.Put(chunk)
	}
}

// iopExchangeRead extracts every AP's portion of the window buffer w —
// into its user buffer where it can (copyLent), else into a chunk it is
// sent — accounting copy and exchange time.
func (f *File) iopExchangeRead(iw iopWindow, w []byte, winLo int64) {
	for r := 0; r < f.p.Size(); r++ {
		n := iw.chunkLen(r)
		if n == 0 || f.copyLent(iw, w, winLo, n, r, false) {
			continue
		}
		csp := f.tr.Time(trace.PhaseCopy, winLo, n)
		chunk := f.bp.Get(int(n))
		iw.copyOut(w, r, chunk)
		f.Stats.CopyNs += csp.End()
		f.sendChunk(r, chunk, winLo)
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
	read   bool  // pipePrep: read the window before replying
}

const (
	pipePrep  = uint8(iota) // prepare the slot for a window (optional read)
	pipeWrite               // write the slot's window back to storage
)

// pipeSlot is one of the two window slots with its persistent worker
// and the buffer of its window, fetched from the pool when the slot's
// first one comes (and again after each one an epoch keeps), with the one
// segment that hands it to storage.  Requests are processed FIFO, which
// encodes the slot discipline: a window's prep (and therefore its read)
// cannot start before the slot's previous write-back finished.  req has
// capacity 2 — at most one outstanding write-back plus one prep are ever
// queued — so the main goroutine never blocks enqueueing.
type pipeSlot struct {
	buf []byte
	// wb is the window of the write-back queued last, handed over with its
	// request — inside an epoch buf is a fresh buffer by the time the
	// worker gets to it — and cleared by the worker once written.  It is
	// not in pipeReq: an element with a pointer costs each channel a
	// second allocation.
	wb   []byte
	seg  [1]storage.Segment // the window, as storage's vectored calls take it
	req  chan pipeReq       // main → worker
	done chan ioToken       // worker → main: prep complete, slot's window ready
	fin  chan ioToken       // worker → main: trailing write-back result at exit
}

// slotWorker is a slot's persistent background goroutine.  Write-back
// errors and durations are carried into the next prep reply (or the fin
// token at shutdown), mirroring the slot hand-over semantics: whoever
// waits for the slot learns the fate of its previous write-back.  A
// window reaches storage as a vectored call of one segment: on the
// I/O-server tier that is one request per server, not one per stripe
// unit, and ReadAtv zero-fills past the end as ReadFull does.
func (f *File) slotWorker(s *pipeSlot) {
	var carry ioToken
	for r := range s.req {
		switch r.kind {
		case pipeWrite:
			bsp := f.tr.TimeIO(trace.PhaseWriteBack, r.lo, r.hi-r.lo)
			err := f.sh.b.WriteAtv(s.window(r.lo, s.wb))
			s.wb = nil
			carry.ns += bsp.End()
			if carry.err == nil {
				carry.err = err
			}
		case pipePrep:
			t := carry
			carry = ioToken{}
			if t.err == nil && r.read {
				rsp := f.tr.TimeIO(trace.PhasePreRead, r.lo, r.hi-r.lo)
				t.err = f.sh.b.ReadAtv(s.window(r.lo, s.buf[:r.hi-r.lo]))
				t.ns += rsp.End()
			}
			s.done <- t
		}
	}
	s.fin <- carry
}

// window is the buffered window buf at file offset lo as one segment.
func (s *pipeSlot) window(lo int64, buf []byte) []storage.Segment {
	s.seg[0] = storage.Segment{Off: lo, Buf: buf}
	return s.seg[:]
}

// pipeWindow describes one in-flight window (a value; the pipeline
// holds at most two).
type pipeWindow struct {
	lo, hi  int64
	iw      iopWindow
	slot    *pipeSlot
	covered bool // write: pre-read skipped
}

// recvChunk receives rank r's share of the window at winLo — an AP's
// data at the IOP of a write, an IOP's at the AP of a read — as a chunk
// this rank owns from here on, accounting the exchange time.
func (f *File) recvChunk(r int, winLo int64) []byte {
	esp := f.tr.Time(trace.PhaseExchange, winLo, 0)
	chunk, _, _ := f.p.Recv(r, tagCollData)
	f.Stats.ExchangeNs += esp.EndBytes(int64(len(chunk)))
	return chunk
}

// sendChunk hands rank r its chunk of the window at winLo, accounting
// the exchange time.  Ownership passes to the transport and onward to
// the receiver, which recycles the chunk after unpacking or merging it
// (pack once, no intermediate copies).
func (f *File) sendChunk(r int, chunk []byte, winLo int64) {
	esp := f.tr.Time(trace.PhaseExchange, winLo, int64(len(chunk)))
	f.p.SendNoCopy(r, tagCollData, chunk)
	f.Stats.ExchangeNs += esp.End()
}

// iopPipelined is the double-buffered window loop.  Window k+1's prep
// request queues behind its slot's previous write-back (windows k+1 and
// k-1 share a slot), so at most two windows are ever in flight; the
// main goroutine does all exchange and copying and hands write-backs to
// the slot workers.
func (f *File) iopPipelined(iop iopState, domLo, domHi, winSize int64, write bool) error {
	keep := write && f.epochBE != nil // every collective write on an epoch backend stages
	var slots [2]*pipeSlot            // started with the first window the IOP moves

	nextSlot := 0
	nextLo := domLo

	// mk prepares the next window the IOP moves, or ok=false when the
	// domain is exhausted.  Empty windows are skipped without consuming a
	// slot.  iop.window calls stay on the main goroutine, in
	// order.
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
			if slots[nextSlot] == nil {
				slots[nextSlot] = &pipeSlot{
					req:  make(chan pipeReq, 2),
					done: make(chan ioToken, 1),
					fin:  make(chan ioToken, 1),
				}
				go f.slotWorker(slots[nextSlot])
			}
			pw := pipeWindow{lo: winLo, hi: winHi, iw: iw, slot: slots[nextSlot]}
			nextSlot = 1 - nextSlot
			if pw.slot.buf == nil {
				pw.slot.buf = f.bp.Get(int(winSize))
			}
			if write {
				pw.covered = iw.covered()
			}
			pw.slot.req <- pipeReq{lo: winLo, hi: winHi, kind: pipePrep, read: !pw.covered}
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
		}

		psp := f.tr.Begin(trace.PhasePipelineWait, cur.lo, 0)
		t := <-cur.slot.done
		psp.End()
		f.Stats.StorageNs += t.ns
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
				nxt.iw.release()
			}
			cur.iw.release()
			break
		}

		wsp := f.tr.Begin(trace.PhaseWindow, cur.lo, cur.iw.total())
		if write {
			if cur.covered {
				f.Stats.PreReadsSkipped++
			}
			cur.slot.wb = cur.slot.buf[:cur.hi-cur.lo]
			f.iopExchangeWrite(cur.iw, cur.slot.wb, cur.lo)
			if keep {
				// The epoch keeps the buffer until it ends; the slot's
				// next window takes a fresh one.
				f.kept = append(f.kept, cur.slot.buf)
				cur.slot.buf = nil
			}
			f.Stats.SieveWrites++
			cur.slot.req <- pipeReq{lo: cur.lo, hi: cur.hi, kind: pipeWrite}
		} else {
			f.Stats.SieveReads++
			f.iopExchangeRead(cur.iw, cur.slot.buf[:cur.hi-cur.lo], cur.lo)
		}
		wsp.End()
		cur.iw.release()
		cur, ok = nxt, nok
	}

	// Shut down: closing req makes each worker finish every queued
	// write-back, then report the trailing result and exit — the
	// pipeline is quiescent when fin has been consumed from both slots.
	for _, s := range slots {
		if s != nil {
			close(s.req)
		}
	}
	for _, s := range slots {
		if s == nil {
			continue
		}
		t := <-s.fin
		f.Stats.StorageNs += t.ns
		if t.err != nil && err == nil {
			err = t.err
		}
		if s.buf != nil {
			f.bp.Put(s.buf)
		}
	}
	return err
}

// unkeep returns what the epoch kept to the pool, once it has ended on
// this rank: the backend holds none of it any more.
func (f *File) unkeep() {
	for _, b := range f.kept {
		f.bp.Put(b)
	}
	clear(f.kept)
	f.kept = f.kept[:0]
}
