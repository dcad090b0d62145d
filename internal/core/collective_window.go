package core

import (
	"repro/internal/storage"
	"repro/internal/trace"
)

// The IOP window loop.  Each IOP walks its file domain in CollBufSize
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
// There are two kinds of window.  A buffered window gathers the APs'
// shares in a CollBufSize buffer so that many short runs become one
// large backend call.  A direct window (iopWindow.direct: every share is
// runs of about a page or more) has no buffer: the chunks themselves and
// the lent user buffers are described as backend segments and move by
// one vectored call, so a byte goes between backend and its last or first
// home once, nothing is pre-read, and no byte outside the views is
// rewritten.
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
// and chunks come from the pool, the segment batches stay with the
// handle, each slot owns one persistent worker goroutine fed by reusable
// channels of value structs (no per-window goroutines, channels, or
// window descriptors), and the engines recycle their per-window state
// via iopWindow.release.
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
	winSize := min(int64(f.opts.CollBufSize), domHi-domLo)
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
	bytes  int64 // what the access moves, for the trace: hi-lo, or a direct window's data bytes
	kind   uint8 // pipePrep or pipeWrite
	read   bool  // pipePrep: read the window before replying
	direct bool  // the window is the slot's segment batch, not its buffer
}

const (
	pipePrep  = uint8(iota) // prepare the slot for a window (optional read)
	pipeWrite               // write the slot's window back to storage
)

// winBatch is a direct window in flight: its backend segments and the
// pooled chunks they slice, by AP rank (nil where an AP holds nothing or
// its segments slice a user buffer).
// The two batches stay with the handle across collectives, as File.segs
// does, and are empty between windows.  Ownership follows the slot: the
// main goroutine fills a batch, and from the request that hands it to
// the worker until the slot's next reply the worker alone touches it.
type winBatch struct {
	segs   []storage.Segment
	chunks [][]byte
}

// drop returns the batch's chunks to the pool and empties it, leaving no
// reference to a chunk or to the user buffer behind.
func (b *winBatch) drop(f *File) {
	for r, c := range b.chunks {
		if c != nil {
			f.bp.Put(c)
			b.chunks[r] = nil
		}
	}
	clear(b.segs)
	b.segs = b.segs[:0]
}

// pipeSlot is one of the two window slots with its persistent worker:
// the buffer of a buffered window, fetched from the pool when the slot's
// first one comes, with the one segment that hands it to storage, and
// the batch of a direct window.  Requests are
// processed FIFO, which encodes the slot discipline: a window's prep
// (and therefore its read) cannot start before the slot's previous
// write-back finished.  req has capacity 2 — at most one outstanding
// write-back plus one prep are ever queued — so the main goroutine never
// blocks enqueueing.
type pipeSlot struct {
	buf   []byte
	seg   [1]storage.Segment // the buffered window, as storage's vectored calls take it
	batch *winBatch
	req   chan pipeReq // main → worker
	done  chan ioToken // worker → main: prep complete, slot's window ready
	fin   chan ioToken // worker → main: trailing write-back result at exit
}

// slotWorker is a slot's persistent background goroutine.  Write-back
// errors and durations are carried into the next prep reply (or the fin
// token at shutdown), mirroring the slot hand-over semantics: whoever
// waits for the slot learns the fate of its previous write-back.  A
// direct write-back ends the life of its chunks: the worker returns
// them to the pool, whatever the outcome.  A direct read may fill user
// buffers (the segments of lent shares, the own one included) from this
// goroutine — their owners are inside the collective until every IOP's
// pipeline is quiescent and it has voted.  A buffered window reaches
// storage the way a direct one does, as a vectored call, of one segment:
// on the I/O-server tier that is one request per server, not one per
// stripe unit, and ReadAtv zero-fills past the end as ReadFull does.
func (f *File) slotWorker(s *pipeSlot) {
	var carry ioToken
	for r := range s.req {
		switch r.kind {
		case pipeWrite:
			bsp := f.tr.TimeIO(trace.PhaseWriteBack, r.lo, r.bytes)
			var err error
			if r.direct {
				err = storage.WriteAtv(f.sh.b, s.batch.segs)
				s.batch.drop(f)
			} else {
				err = storage.WriteAtv(f.sh.b, s.window(r))
			}
			carry.ns += bsp.End()
			if carry.err == nil {
				carry.err = err
			}
		case pipePrep:
			t := carry
			carry = ioToken{}
			if t.err == nil && r.read {
				rsp := f.tr.TimeIO(trace.PhasePreRead, r.lo, r.bytes)
				if r.direct {
					t.err = storage.ReadAtv(f.sh.b, s.batch.segs)
				} else {
					t.err = storage.ReadAtv(f.sh.b, s.window(r))
				}
				t.ns += rsp.End()
			}
			s.done <- t
		}
	}
	s.fin <- carry
}

// window is r's buffered window as one segment over the slot's buffer.
func (s *pipeSlot) window(r pipeReq) []storage.Segment {
	s.seg[0] = storage.Segment{Off: r.lo, Buf: s.buf[:r.hi-r.lo]}
	return s.seg[:]
}

// pipeWindow describes one in-flight window (a value; the pipeline
// holds at most two).
type pipeWindow struct {
	lo, hi  int64
	iw      iopWindow
	slot    *pipeSlot
	direct  bool // no window buffer: the slot's batch is the window
	covered bool // buffered write: pre-read skipped
}

// directGather describes every AP's share of direct window pw in the
// slot's batch: segments over the user buffer it lives in where the
// engine moves it in place (lentSegs), else over its chunk — the one
// received (write), a fresh one to read into (read).
func (f *File) directGather(pw *pipeWindow, write bool) {
	b := pw.slot.batch
	for r := 0; r < f.p.Size(); r++ {
		n := pw.iw.chunkLen(r)
		if n == 0 {
			continue
		}
		if segs, ok := pw.iw.lentSegs(b.segs, r); ok {
			b.segs = segs
			continue
		}
		if write {
			b.chunks[r] = f.recvChunk(r, pw.lo)
		} else {
			b.chunks[r] = f.bp.Get(int(n))
		}
		b.segs = pw.iw.chunkSegs(b.segs, r, b.chunks[r])
	}
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

// lendShare hands IOP r this rank's share [a, b) of the window at winLo
// as the slices of the user buffer that hold it, when ap can lend it,
// accounting the exchange time.  Only a wired world lends slices: they
// reach the socket from where they lie, and the collective does not
// return before they have left (transferCollective).  In-process the
// IOP moves the share in place instead (memLoan).
func (f *File) lendShare(r int, ap apState, a, b, winLo int64) bool {
	at := len(f.lent)
	lent, ok := ap.lend(f.lent, a, b)
	if !ok {
		return false
	}
	f.lent = lent
	esp := f.tr.Time(trace.PhaseExchange, winLo, b-a)
	f.p.SendSegs(r, tagCollData, lent[at:len(lent):len(lent)])
	f.Stats.ExchangeNs += esp.End()
	return true
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
			batch: &f.batch[i],
			req:   make(chan pipeReq, 2),
			done:  make(chan ioToken, 1),
			fin:   make(chan ioToken, 1),
		}
		if len(s.batch.chunks) != f.p.Size() {
			s.batch.chunks = make([][]byte, f.p.Size())
		}
		slots[i] = s
		go f.slotWorker(s)
	}

	nextSlot := 0
	nextLo := domLo

	// mk prepares the next non-empty window, or ok=false when the
	// domain is exhausted.  Empty windows are skipped without consuming
	// a slot.  iop.window calls stay on the main goroutine, in order.
	// A direct read window's batch is built here — its slot is idle, a
	// read leaves no write-back behind — so that the worker can fill it
	// where a buffered window's read runs.
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
			pw := pipeWindow{lo: winLo, hi: winHi, iw: iw, slot: slots[nextSlot], direct: iw.direct()}
			nextSlot = 1 - nextSlot
			req := pipeReq{lo: winLo, hi: winHi, bytes: winHi - winLo, kind: pipePrep, read: !write, direct: pw.direct}
			switch {
			case !pw.direct:
				if pw.slot.buf == nil {
					pw.slot.buf = f.bp.Get(int(winSize))
				}
				if write {
					pw.covered = !f.opts.DisableMergeCheck && iw.covered()
					req.read = !pw.covered
				}
			case !write:
				req.bytes = iw.total()
				f.directGather(&pw, false)
				f.Stats.VectoredReads++
				f.Stats.DirectReads += int64(len(pw.slot.batch.segs))
			}
			pw.slot.req <- req
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
			// collective on the file.  Both windows' slots have replied,
			// so their batches are the main goroutine's again: the unsent
			// chunks of direct read windows go back to the pool (a write
			// window's batch is not gathered before its slot replied
			// without error).
			err = t.err
			if nok {
				t2 := <-nxt.slot.done
				f.Stats.StorageNs += t2.ns
				nxt.slot.batch.drop(f)
				nxt.iw.release()
			}
			cur.slot.batch.drop(f)
			cur.iw.release()
			break
		}

		wsp := f.tr.Begin(trace.PhaseWindow, cur.lo, cur.iw.total())
		if write {
			if cur.covered || cur.direct {
				f.Stats.PreReadsSkipped++
			}
			wb := pipeReq{lo: cur.lo, hi: cur.hi, bytes: cur.hi - cur.lo, kind: pipeWrite, direct: cur.direct}
			if cur.direct {
				f.directGather(&cur, true)
				f.Stats.VectoredWrites++
				f.Stats.DirectWrites += int64(len(cur.slot.batch.segs))
				wb.bytes = cur.iw.total()
			} else {
				f.iopExchangeWrite(cur.iw, cur.slot.buf[:cur.hi-cur.lo], cur.lo)
			}
			f.Stats.SieveWrites++
			cur.slot.req <- wb
		} else {
			f.Stats.SieveReads++
			if cur.direct {
				f.directSend(cur.slot.batch, cur.lo)
			} else {
				f.iopExchangeRead(cur.iw, cur.slot.buf[:cur.hi-cur.lo], cur.lo)
			}
		}
		wsp.End()
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
		if t.err != nil && err == nil {
			err = t.err
		}
		if s.buf != nil {
			f.bp.Put(s.buf)
		}
	}
	return err
}

// directSend hands every chunk of a direct read window, filled by the
// slot worker, to its AP, and empties the batch.
func (f *File) directSend(b *winBatch, winLo int64) {
	for r, chunk := range b.chunks {
		if chunk != nil {
			b.chunks[r] = nil
			f.sendChunk(r, chunk, winLo)
		}
	}
	b.drop(f)
}
