package core

import (
	"repro/internal/datatype"
	"repro/internal/flatten"
	"repro/internal/fotf"
)

// accessEngine is the seam between the engine-neutral MPI-IO machinery
// (file handles, data sieving, the two-phase collective schedule and its
// window loop) and the two datatype-handling implementations.  The
// paper's observation is that list-based and listless I/O share one
// structure and differ only in how they represent and navigate
// datatypes; everything behind this interface is that difference, and
// nothing outside newEngine branches on the engine choice.
type accessEngine interface {
	// setView installs engine-specific state for the fileview just
	// assigned to f.v and performs the collective synchronization that
	// SetView requires (the listless engine exchanges encoded fileviews
	// and decides whether they are disjoint; the list-based engine
	// flattens and synchronizes).
	setView() error

	// dataToFileStart maps a view data offset to the absolute file
	// offset of its first byte.
	dataToFileStart(d int64) int64
	// dataToFileEnd maps a view data offset to the absolute file offset
	// just past byte d-1.
	dataToFileEnd(d int64) int64

	// newMemState builds the per-access memtype representation (the
	// list-based engine creates, and discards, an ol-list per access).
	newMemState(memtype *datatype.Type, count int64) *memState
	// packUser packs n bytes of user data starting at data offset skip
	// into dst, from the memtype-described buffer buf.
	packUser(dst, buf []byte, mem *memState, skip, n int64)
	// unpackUser is the inverse of packUser.
	unpackUser(buf, src []byte, mem *memState, skip, n int64)

	// seekData returns a sequential cursor over the local fileview
	// positioned at data offset d0, for the independent sieving and
	// direct-access paths.
	seekData(d0 int64) viewCursor

	// apSetup runs access-process phase 1 of one collective access:
	// the list-based engine builds and transmits per-IOP access lists,
	// the listless engine sends no view (SetView exchanged them once)
	// and, in-process, lends its access to the IOPs that hold it
	// (memLoan).  Every rank must call it once per access.
	apSetup(pl *collPlan, acc *collAccess) apState
	// planFree returns the mover of collective access acc when the views
	// cached at SetView say it needs no plan — each rank moves its own
	// share of each window through the owner mover (File.moveOwn,
	// File.moveAlone) and the ranks vote — and nil when it takes the plan,
	// where the IOPs move every window through a window buffer.  Every rank
	// gives the same answer.  The list-based engine always takes the plan.
	planFree(acc *collAccess) func(winLo, winHi int64) error
	// iopSetup runs the I/O-process setup (the list-based engine
	// receives one access list from every AP, the listless engine takes
	// the loans) and returns the window-by-window processor state.  Every
	// IOP rank must call it, even when its domain is empty, to drain the
	// AP phase-1 messages.  acc is the same value apSetup saw: an IOP is
	// an AP of its own data too, and the two sides must agree on how that
	// share moves.
	iopSetup(pl *collPlan, acc *collAccess) (iopState, error)
}

// collAccess is the calling rank's own side of one collective access —
// or of an independent one the owner mover moves (transferDirect): the
// view-data range [d0, d0+d) it moves, the file offset lo of data byte
// d0, and the memtype-described user buffer it moves it from (write) or
// to.
type collAccess struct {
	d0, d, lo int64
	mem       *memState
	buf       []byte
	write     bool
}

// meets reports whether the access is a read whose destination bytes may
// meet: two data bytes of the memtype at one buffer offset, which a fill
// in data order leaves as an unpack from chunks does, the later one
// winning, and a fill in any other order does not.  A memtype without a
// compiled program to tell may meet, unless it is contiguous.
func (acc *collAccess) meets() bool {
	mem := acc.mem
	return !acc.write && !mem.t.ContiguousTiled() && (mem.prog == nil || !mem.prog.Disjoint(mem.count))
}

// loan returns the access as an IOP moves it in place.  It describes the
// access only when the memtype is compiled or contiguous.
func (acc *collAccess) loan() memLoan {
	if acc.mem.prog == nil {
		return memLoan{buf: acc.buf[acc.mem.t.TrueLB():], d0: acc.d0}
	}
	return memLoan{buf: acc.buf, prog: acc.mem.prog, d0: acc.d0}
}

// memLoan is the memory side of one rank's collective access as an IOP
// moves its share in place, window by window, with no chunk: the user
// buffer and the memtype's compiled program, view data byte x being data
// byte x-d0 of the memtype over buf.  With prog nil the memory is
// contiguous, and buf holds the data packed from byte d0 on.  An IOP
// holds one for its own access and, in-process, one for each AP that
// lent it its access for the collective (apSetup); the loan holds nothing
// per window.  A nil loan, the pack loan, says that the AP's shares travel
// as chunks.
type memLoan struct {
	buf  []byte
	prog *fotf.Program
	d0   int64
}

// contig returns the bytes holding view data [a, b) of a contiguous loan.
func (l *memLoan) contig(a, b int64) []byte { return l.buf[a-l.d0 : b-l.d0] }

// viewCursor walks the local fileview sequentially over one access
// (seekData), or over the shares of the windows a collective with no plan
// moves through the listless engine's own cursor, placed at each.  The
// list-based implementation advances an ol-list cursor per tuple; the
// listless implementation navigates with O(depth) flattening-on-the-fly
// calls.
type viewCursor interface {
	// countUpTo reports the data bytes between the cursor's position
	// and the absolute file offset fileHi, without advancing.
	countUpTo(fileHi int64) int64
	// copyWindow moves the next c data bytes between the contiguous
	// buffer cb and the window w holding file bytes from absolute
	// offset winLo, advancing the cursor.  write=true copies cb→w.
	copyWindow(cb, w []byte, c, winLo int64, write bool)
	// copyUser is copyWindow without the contiguous buffer: the next c
	// data bytes move in one pass between w and the user buffer buf,
	// where they are the data of mem from offset skip.  It reports
	// false, having moved nothing and not advanced, when the engine has
	// no fused copy for this access; the caller then stages the bytes
	// through packUser/unpackUser and copyWindow.
	copyUser(w []byte, c, winLo int64, buf []byte, mem *memState, skip int64, write bool) bool
	// eachRun advances the cursor by c data bytes, adding one segment
	// per contiguous file run to b, whose mem holds the data packed from
	// the cursor's position (segBuilder.d0) on.
	eachRun(c int64, b *segBuilder)
	// fuses reports whether eachUserRun can walk the fileview and the
	// memtype of mem together.
	fuses(mem *memState) bool
	// eachUserRun is to eachRun what copyUser is to copyWindow: the next
	// c data bytes, which are the data of mem from offset skip, go to b
	// in pieces contiguous both in the file and in the memtype-described
	// user buffer, which is b's mem, with d0 zero — an offset list that
	// needs no packed copy of the data.  Only a cursor that fuses mem is
	// asked.
	eachUserRun(c int64, mem *memState, skip int64, b *segBuilder)
}

// apState is the engine's AP-side state for one collective access.
type apState interface {
	// cursor returns a sequential window cursor over this rank's data
	// within IOP i's domain.  Windows must be visited in ascending
	// order.  A nil cursor means that no message carries that data: IOP i
	// moves it in place between its windows and the user buffer
	// (iopWindow.copyLent) — as its own access, or as one this rank lent it.
	cursor(i int) apCursor
}

// apCursor yields, window by window, the data range [a, b) this rank's
// access holds within [winLo, winHi) of one IOP domain, which moves
// through the IOP.  a == b means no data.
type apCursor interface {
	window(winLo, winHi int64) (a, b int64)
}

// iopState walks an IOP's file domain window by window.  window calls
// must be made in ascending order (the list-based engine advances
// per-AP list cursors), but each returned iopWindow is self-contained,
// which is what lets the pipelined loop overlap the storage I/O of
// neighboring windows.
type iopState interface {
	window(winLo, winHi int64) iopWindow
}

// iopWindow is the exchange state of one collective-buffer window:
// which APs hold data in it, whether their data covers it, and how each
// AP's share meets the window buffer — copied as a chunk (copyIn,
// copyOut) or in place (copyLent).
type iopWindow interface {
	// total is the number of data bytes all APs hold in the window.
	total() int64
	// chunkLen is the number of data bytes AP r holds in the window.
	chunkLen(r int) int64
	// covered reports whether the APs' data fully covers the window,
	// making the read-modify-write pre-read of a collective write
	// unnecessary.
	covered() bool
	// copyIn copies AP r's received chunk into the window buffer w.
	copyIn(w []byte, r int, chunk []byte)
	// copyOut extracts AP r's portion of the window buffer w into
	// chunk, which has chunkLen(r) bytes.
	copyOut(w []byte, r int, chunk []byte)
	// copyLent moves AP r's share of the window directly between r's user
	// buffer — this rank's own, or one r lent it — and the window buffer
	// w, write=true towards w.  It reports false, having moved nothing,
	// when the share travels as a chunk: exactly when AP r's cursor for
	// this IOP is not nil.
	copyLent(w []byte, r int, write bool) bool
	// release returns the window to its engine for reuse.  The caller
	// must not touch the window afterwards; engines may recycle the
	// backing state on the next window call (or make release a no-op).
	release()
}

// memState carries the per-access memtype representation.  The
// list-based engine fills list/ext with the flattened memtype exactly
// as ROMIO does for non-contiguous memtypes; contiguous memory
// (including a basic type with a large count) collapses to one segment
// spanning the whole access, as in ROMIO's contiguous shortcut.  The
// listless engine keeps the type's compiled program instead.
type memState struct {
	t     *datatype.Type
	count int64
	list  flatten.List // list-based only
	ext   int64        // tiling extent matching list/count (list-based)

	// prog is the compiled memtype (listless only): nil when the type is
	// contiguous or declines compilation, and then the fused copies and
	// typed loans that need it are not taken.  cur executes it, or walks
	// the type where it is nil, across the access's ascending windows.
	prog *fotf.Program
	cur  fotf.Cursor
}

// newEngine constructs the engine the handle's options select.  This is
// the single place the engine choice is branched on; every other
// behavioral difference flows through the accessEngine interface.
func newEngine(f *File) accessEngine {
	if f.opts.Engine == ListBased {
		return newListEngine(f)
	}
	return newListlessEngine(f)
}
