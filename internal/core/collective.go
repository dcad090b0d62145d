package core

import (
	"repro/internal/datatype"
	"repro/internal/trace"
)

// Collective I/O: the two-phase method (paper §2.3, §3.2.3).  The
// aggregate file range of all ranks is partitioned into per-IOP file
// domains, one per rank; IOPs access the file in 1 MiB windows and
// exchange data with the APs.
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
// returns an error the contents of buf are undefined: this rank fills its
// shares of direct windows itself, and the I/O processes fill buf in
// place — this rank's own, and in-process every one whose domain holds
// its data — while the windows are read, before the ranks agree on the
// outcome.  No goroutine touches buf after the call has returned.
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
		return nil
	}

	// Crash-consistent write: when the backend supports epochs, the IOP
	// write-backs below stage under this id instead of applying, and
	// epochFinish commits them after the error vote; the buffers they
	// stage are kept (f.kept) until the epoch has ended.  The plan (hence
	// `any`) is deterministic across ranks, so every rank agrees on
	// whether an epoch exists and on its id.
	var epochID uint64
	if write && f.epochBE != nil {
		epochID = f.epochBegin()
	}

	// ---- AP phase 1: engine-specific access description (the
	// list-based engine builds and sends per-IOP ol-lists; the listless
	// engine, in-process, lends buf to the IOPs that hold its data). ----
	asp := f.tr.Begin(trace.PhaseAPSetup, d0, 0)
	ap := f.eng.apSetup(pl, acc)
	asp.End()

	// ---- AP phase 2 (write): pack and send data; buffered sends. ----
	if write && d > 0 {
		f.apExchange(pl, acc, ap, true)
	}

	// ---- Direct windows: this rank moves its own share of each by one
	// vectored call, and the IOP phase skips them.  Then the IOP phase
	// processes the file domain window by window.  An IOP whose engine
	// fuses copies moves its own share here, and the shares lent to it,
	// straight between the user buffers and its windows.  On a read both
	// are before the error vote below, which is why a failed collective
	// read leaves buf undefined.  A failed direct batch is voted as an IOP
	// window's fault of this rank. ----
	var fault *CollectiveError
	if err := f.apDirect(pl, ap); err != nil {
		fault = &CollectiveError{Rank: f.p.Rank(), Phase: PhaseIOPWindow, Err: err}
	}
	if iopFault := f.iopProcess(pl, acc, write); fault == nil {
		fault = iopFault
	}

	// ---- Error agreement: every rank votes its IOP-phase outcome and,
	// on any failure, drains in-flight traffic and returns the same
	// rank-attributed error.  This must precede the read-side exchange:
	// an AP must not block receiving from an IOP that failed.
	//
	// It also ends every loan of buf.  An IOP votes only once its window
	// pipeline is quiescent, so after the vote no IOP reads or writes buf
	// in place.  On failure an IOP may have stopped before taking what it
	// was lent: in-process the loans and chunks left in its inbox are
	// drained before the barrier. ----
	if err := f.agreeCollective(fault); err != nil {
		if epochID != 0 {
			f.epochAbandon(epochID)
			f.unkeep()
		}
		if f.tr.Enabled() {
			f.tr.Instant(trace.PhaseFault, d0, 0, err.Error())
		}
		f.p.Barrier() // keep the next collective's sends behind the drain
		f.dropHeld()
		return err
	}

	// ---- Epoch commit: seal the staged write-backs everywhere, vote,
	// and let rank 0 broadcast the commit.  Collective, like the error
	// agreement above. ----
	if epochID != 0 {
		err := f.epochFinish(epochID)
		f.unkeep()
		if err != nil {
			if f.tr.Enabled() {
				f.tr.Instant(trace.PhaseFault, d0, 0, err.Error())
			}
			f.p.Barrier()
			return err
		}
	}

	// ---- AP phase 2 (read): receive and unpack data — nothing, from an
	// IOP this rank lent buf to. ----
	if !write && d > 0 {
		f.apExchange(pl, acc, ap, false)
		f.dropHeld()
	}

	// No barrier ends a successful collective: every receive of the next
	// one names its source and tag, and per-pair FIFO keeps it behind
	// everything this one sent on the same link.
	return nil
}

// dropHeld returns the chunks of the held direct shares a failed read did
// not unpack to the pool and empties the list.
func (f *File) dropHeld() {
	for i := range f.held {
		if c := f.held[i].chunk; c != nil {
			f.bp.Put(c)
		}
	}
	clear(f.held)
	f.held = f.held[:0]
}
