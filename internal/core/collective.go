package core

import (
	"repro/internal/datatype"
	"repro/internal/trace"
)

// Collective I/O: the two-phase method (paper §2.3, §3.2.3).  The
// aggregate file range of all ranks is partitioned into per-IOP file
// domains; IOPs access the file in windows of CollBufSize and exchange
// data with the APs.
//
// The schedule here is engine-neutral: how each rank describes its
// accesses to the IOPs (ol-list exchange vs. cached-fileview
// navigation), and how window data is located and copied, live behind
// the accessEngine interface.  The schedule itself is split across
// three files: collective_plan.go (the deterministic plan every rank
// computes), collective_exchange.go (the AP side), and
// collective_window.go (the IOP window loop, sequential and pipelined).

// WriteAtAll collectively writes count instances of memtype from buf to
// the view at offset off (in etypes).  All ranks must call it.
func (f *File) WriteAtAll(off int64, count int64, memtype *datatype.Type, buf []byte) (int64, error) {
	d, err := f.checkAccess(off, count, memtype, buf)
	if err != nil {
		return 0, err
	}
	if err := f.transferCollective(off*f.v.esize, d, memtype, count, buf, true); err != nil {
		return 0, err
	}
	f.Stats.BytesWritten += d
	f.Stats.CollectiveWrites++
	return d, nil
}

// ReadAtAll collectively reads count instances of memtype from the view
// at offset off (in etypes) into buf.  All ranks must call it.  When it
// returns an error the contents of buf are undefined: the I/O processes
// fill buf in place — this rank's own, and in-process every one whose
// domain holds its data — while the windows are read, before the ranks
// agree on the outcome; over a wire the link readers fill the parts of
// buf this rank posted as the frames arrive, until the call has taken
// their completions or, on failure, withdrawn what was not yet filled.
// No goroutine touches buf after the call has returned.
func (f *File) ReadAtAll(off int64, count int64, memtype *datatype.Type, buf []byte) (int64, error) {
	d, err := f.checkAccess(off, count, memtype, buf)
	if err != nil {
		return 0, err
	}
	if err := f.transferCollective(off*f.v.esize, d, memtype, count, buf, false); err != nil {
		return 0, err
	}
	f.Stats.BytesRead += d
	f.Stats.CollectiveReads++
	return d, nil
}

// transferCollective runs one two-phase collective access.
func (f *File) transferCollective(d0, d int64, memtype *datatype.Type, count int64, buf []byte, write bool) error {
	top := trace.PhaseCollRead
	if write {
		top = trace.PhaseCollWrite
	}
	sp := f.tr.Begin(top, d0, d)
	defer sp.End()

	acc := &collAccess{d0: d0, d: d, mem: f.eng.newMemState(memtype, count), buf: buf, write: write}

	psp := f.tr.Begin(trace.PhaseCollPlan, d0, 0)
	pl, any := f.makePlan(d0, d)
	psp.End()
	if !any {
		f.p.Barrier()
		return nil
	}

	// Crash-consistent write: when the backend supports epochs, the IOP
	// write-backs below stage under this id instead of applying, and
	// epochFinish commits them after the error vote.  The plan (hence
	// `any`) is deterministic across ranks, so every rank agrees on
	// whether an epoch exists and on its id.
	var epochID uint64
	if write && f.epochBE != nil {
		epochID = f.epochBegin()
	}

	// ---- AP phase 1: engine-specific access description (the
	// list-based engine builds and sends per-IOP ol-lists; the listless
	// engine, in-process, lends buf to the IOPs that hold its data, and
	// over a wire posts a read's destination). ----
	asp := f.tr.Begin(trace.PhaseAPSetup, d0, 0)
	ap := f.eng.apSetup(pl, acc)
	asp.End()

	// ---- AP phase 2 (write): pack and send data; buffered sends. ----
	if write && d > 0 {
		f.apExchange(pl, acc, ap, true)
	}

	// ---- IOP phase: process the file domain window by window.  An
	// IOP whose engine fuses copies moves its own share here, and the
	// shares lent to it, straight between the user buffers and its
	// windows: on a read that is before the error vote below, which is
	// why a failed collective read leaves buf undefined. ----
	var fault *CollectiveError
	if f.p.Rank() < pl.nIOP {
		fault = f.iopProcess(pl, acc, write)
	}

	// ---- Error agreement: every rank votes its IOP-phase outcome and,
	// on any failure, drains in-flight traffic and returns the same
	// rank-attributed error.  This must precede the read-side exchange:
	// an AP must not block receiving from an IOP that failed.
	//
	// It also ends every loan of buf but one.  An IOP votes only once its
	// window pipeline is quiescent, so after the vote no IOP reads or
	// writes buf in place.  On failure an IOP may have stopped before
	// taking what it was lent: in-process the loans and chunks left in
	// its inbox are drained before the barrier, and on a wire the slices
	// this rank lent (f.lent) may still be in its send queue, which
	// Flush empties — not before the IOP phase, where both ends of a link
	// could block on full sockets.  The one that outlives a successful
	// vote is a wired read's postings: link readers fill them until the
	// read phase below has taken every completion.  On failure the drain
	// withdraws those nothing has matched and waits for any being filled,
	// so that no goroutine writes buf once the read has returned. ----
	if err := f.agreeCollective(fault); err != nil {
		if epochID != 0 {
			f.epochAbandon(epochID)
		}
		if f.tr.Enabled() {
			f.tr.Instant(trace.PhaseFault, d0, 0, err.Error())
		}
		if write && len(f.lent) > 0 {
			f.p.Flush()
		}
		f.p.Barrier() // keep the next collective's sends behind the drain
		f.endLoan()
		return err
	}
	if write {
		f.endLoan()
	}

	// ---- Epoch commit: seal the staged write-backs everywhere, vote,
	// and let rank 0 broadcast the commit.  Collective, like the error
	// agreement above. ----
	if epochID != 0 {
		if err := f.epochFinish(epochID); err != nil {
			if f.tr.Enabled() {
				f.tr.Instant(trace.PhaseFault, d0, 0, err.Error())
			}
			f.p.Barrier()
			return err
		}
	}

	// ---- AP phase 2 (read): receive and unpack data — nothing, from an
	// IOP this rank lent buf to, and only completions for what it posted,
	// whose segments the loan holds until here. ----
	if !write && d > 0 {
		f.apExchange(pl, acc, ap, false)
		f.endLoan()
	}

	f.p.Barrier()
	return nil
}

// endLoan forgets the slices this collective lent or posted, which no
// receiver reads and no link reader fills any more, so that the handle
// keeps no reference into the caller's buffer, and returns the posted
// chunks a failed read did not unpack.
func (f *File) endLoan() {
	for i := range f.posted {
		if c := f.posted[i].chunk; c != nil {
			f.bp.Put(c)
		}
	}
	clear(f.posted)
	f.posted = f.posted[:0]
	clear(f.lent)
	f.lent = f.lent[:0]
}
