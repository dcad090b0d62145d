package core

import (
	"repro/internal/datatype"
	"repro/internal/fotf"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Independent I/O.  An access is windowed or the owner's: a
// non-contiguous fileview is data-sieved through a file window (Figure
// 3), with one fused copy between user buffer and window where the engine
// has one and the pack buffer between them otherwise; a contiguous
// fileview, and a sparse one below Options.SieveDensity, go to the owner
// mover (transferDirect), which moves the user's bytes with no window.

// WriteAt writes count instances of memtype from buf into the view at
// offset off (in etypes), independently of other ranks.  It returns the
// number of data bytes written.
func (f *File) WriteAt(off int64, count int64, memtype *datatype.Type, buf []byte) (int64, error) {
	d, err := f.checkAccess(off, count, memtype, buf)
	if err != nil || d == 0 {
		return 0, err
	}
	if err := f.transferIndependent(off*f.v.esize, d, memtype, count, buf, true); err != nil {
		return 0, err
	}
	f.Stats.BytesWritten += d
	return d, nil
}

// ReadAt reads count instances of memtype from the view at offset off
// (in etypes) into buf, independently of other ranks.  It returns the
// number of data bytes read.
func (f *File) ReadAt(off int64, count int64, memtype *datatype.Type, buf []byte) (int64, error) {
	d, err := f.checkAccess(off, count, memtype, buf)
	if err != nil || d == 0 {
		return 0, err
	}
	if err := f.transferIndependent(off*f.v.esize, d, memtype, count, buf, false); err != nil {
		return 0, err
	}
	f.Stats.BytesRead += d
	return d, nil
}

// memIsContig reports whether the memory data of the access is one
// contiguous run.
func memIsContig(memtype *datatype.Type, count int64) bool {
	return memtype.ContiguousTiled() || (count == 1 && memtype.Dense())
}

// transferIndependent moves d data bytes between buf (count instances of
// memtype) and the view starting at view data offset d0.
func (f *File) transferIndependent(d0, d int64, memtype *datatype.Type, count int64, buf []byte, write bool) error {
	top := trace.PhaseIndRead
	if write {
		top = trace.PhaseIndWrite
	}
	sp := f.tr.Begin(top, d0, d)
	defer sp.End()

	mem := f.eng.newMemState(memtype, count)
	memContig := memIsContig(memtype, count)
	lo := f.eng.dataToFileStart(d0)
	if f.v.ftype.ContiguousTiled() {
		return f.transferDirect(d0, d, lo, buf, mem, memContig, write)
	}

	// Non-contiguous fileview: data sieving over the file range that
	// backs data [d0, d0+d).
	hi := f.eng.dataToFileEnd(d0 + d)

	// Sieving-vs-direct decision (the paper's §5 outlook): when the
	// access is sparse, reading/writing whole sieve windows moves mostly
	// useless bytes and the RMW write-back doubles the traffic; below
	// the density threshold, issue one backend access per block instead.
	if f.opts.SieveDensity > 0 && float64(d) < f.opts.SieveDensity*float64(hi-lo) {
		return f.transferDirect(d0, d, lo, buf, mem, memContig, write)
	}

	win := f.bp.Get(int(min(int64(f.opts.sieveBufSize), hi-lo)))
	defer f.bp.Put(win)
	// The pack buffer of a staged nc-nc access is borrowed by the first
	// window that needs it; a fused access never does.
	var pb []byte
	defer func() {
		if pb != nil {
			f.bp.Put(pb)
		}
	}()

	// The sequential fileview cursor: the list-based engine pays the
	// linear O(N_block) initial positioning of §2.2 and advances
	// per-tuple, the listless engine navigates in O(depth).
	vc := f.eng.seekData(d0)

	dw := d0 // view-data cursor
	for winLo := lo; winLo < hi; winLo += int64(len(win)) {
		winHi := min(winLo+int64(len(win)), hi)
		w := win[:winHi-winLo]

		// Data bytes inside this window.
		n := vc.countUpTo(winHi)
		if n == 0 {
			continue
		}
		if n > d-(dw-d0) {
			n = d - (dw - d0)
		}

		if write {
			ssp := f.tr.Begin(trace.PhaseSieveWrite, winLo, n)
			// Another rank's window may hold these bytes: lock across
			// the read-modify-write so no update between its read and
			// its write-back is lost.
			f.sh.locks.Lock(winLo, winHi)
			var err error
			if n != winHi-winLo {
				// Read-modify-write: fill the gaps from the file.
				rsp := f.tr.Time(trace.PhasePreRead, winLo, winHi-winLo)
				err = storage.ReadFull(f.sh.b, w, winLo)
				f.Stats.StorageNs += rsp.End()
			}
			if err == nil {
				f.moveWindow(w, winLo, dw, n, buf, mem, memContig, d0, &pb, true, vc)
				wsp := f.tr.Time(trace.PhaseWriteBack, winLo, winHi-winLo)
				_, err = f.sh.b.WriteAt(w, winLo)
				f.Stats.StorageNs += wsp.End()
			}
			f.sh.locks.Unlock(winLo, winHi)
			ssp.End()
			if err != nil {
				return err
			}
			f.Stats.SieveWrites++
		} else {
			ssp := f.tr.Begin(trace.PhaseSieveRead, winLo, n)
			rsp := f.tr.Time(trace.PhasePreRead, winLo, winHi-winLo)
			err := storage.ReadFull(f.sh.b, w, winLo)
			f.Stats.StorageNs += rsp.End()
			if err != nil {
				ssp.End()
				return err
			}
			f.Stats.SieveReads++
			f.moveWindow(w, winLo, dw, n, buf, mem, memContig, d0, &pb, false, vc)
			ssp.End()
		}
		dw += n
	}
	return nil
}

// moveWindow copies view data [dv, dv+n) between the file window w
// (holding absolute file range starting at winLo) and the user buffer,
// as one copy span of copy time.  Contiguous memory is the contiguous
// side of copyWindow itself; a non-contiguous layout moves by the
// engine's fused copy where it has one and is otherwise staged through
// *pb, fetched from the pool on first use.  write=true copies
// user→window.
func (f *File) moveWindow(w []byte, winLo, dv, n int64, buf []byte, mem *memState, memContig bool, d0 int64, pb *[]byte, write bool, vc viewCursor) {
	csp := f.tr.Time(trace.PhaseCopy, winLo, n)
	skip := dv - d0
	switch {
	case memContig:
		u := mem.t.TrueLB() + skip
		vc.copyWindow(buf[u:u+n], w, n, winLo, write)
	case vc.copyUser(w, n, winLo, buf, mem, skip, write):
	default:
		if *pb == nil {
			*pb = f.bp.Get(f.opts.packBufSize)
		}
		for m := int64(0); m < n; m += int64(len(*pb)) {
			cb := (*pb)[:min(int64(len(*pb)), n-m)]
			c := int64(len(cb))
			if write {
				f.eng.packUser(cb, buf, mem, skip+m, c)
			}
			// Copy between contiguous cb and the window per the fileview.
			vc.copyWindow(cb, w, c, winLo, write)
			if !write {
				f.eng.unpackUser(buf, cb, mem, skip+m, c)
			}
		}
	}
	f.Stats.CopyNs += csp.End()
}

// transferDirect performs an independent access through the owner mover
// (moveOwn) — for a non-contiguous fileview the "multiple file accesses"
// alternative to data sieving — with no window: no read-modify-write and
// no byte-range locks are needed, because every backend access touches
// exactly the bytes of the view.  lo is the file offset of data byte d0.
//
// The access goes in one chunk when the mover takes it in place — from
// contiguous memory, or, on the list face, from a layout the engine walks
// together with the fileview (viewCursor.fuses), when the segments point
// into the user buffer — and a pack buffer at a time otherwise.  Only the
// list face positions a cursor.
func (f *File) transferDirect(d0, d, lo int64, buf []byte, mem *memState, memContig bool, write bool) error {
	acc := &collAccess{d0: d0, d: d, lo: lo, mem: mem, buf: buf, write: write}
	var vc viewCursor
	inPlace := memContig
	if f.listsRuns() {
		vc = f.eng.seekData(d0)
		inPlace = memContig || vc.fuses(mem)
	}
	chunk := d
	if !inPlace {
		chunk = int64(f.opts.packBufSize)
	}
	for m := int64(0); m < d; m += chunk {
		pb, err := f.moveOwn(vc, acc, d0+m, d0+min(m+chunk, d), inPlace, trace.NoWindow)
		if pb != nil {
			f.bp.Put(pb)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// listsRuns reports whether the owner mover takes its list face: the
// fileview is neither registered with the backend nor contiguous.
func (f *File) listsRuns() bool {
	return f.viewBE == nil && !f.v.ftype.ContiguousTiled()
}

// moveOwn is the owner mover, the one mover of a rank's own bytes with no
// window around them: it moves data bytes [a, b) of this rank's own view
// between the backend and the user buffer of acc by one backend call, in
// one of three faces the handle's state selects:
//
//   - a fileview registered with the backend (viewBE) takes the bytes as
//     one view request, addressed in view data;
//   - a contiguous fileview takes them as one segment, at file offset
//     acc.lo plus their distance from acc.d0;
//   - any other view takes them as an offset list, one segment per
//     stretch of the view's runs from vc's position on, vc advancing.
//
// With inPlace the bytes move where they lie in the user buffer, which is
// the packed data when the memory is contiguous and is otherwise cut with
// the fileview (vc must fuse the memtype), on the list face only: off it,
// in place means contiguous memory.  Else they move through a pooled pack
// buffer, packed first for a write and unpacked after for a read.  That
// buffer, if one was drawn, is returned to the caller, whose it is.  The
// copies are timed as PhaseCopy and the call as PhaseWriteBack or
// PhasePreRead, in spans of window at, and the mover is the one site that
// counts the Direct*, Vectored* and View* transfer stats.
func (f *File) moveOwn(vc viewCursor, acc *collAccess, a, b int64, inPlace bool, at int64) (pb []byte, err error) {
	n, skip, mem := b-a, a-acc.d0, acc.mem
	list, contig := f.listsRuns(), memIsContig(mem.t, mem.count)
	if !list {
		inPlace = contig
	}
	// data is the bytes packed: in the user buffer, or in pb; nil where
	// the list face cuts the user buffer with the fileview.
	var data []byte
	switch {
	case !inPlace:
		pb = f.bp.Get(int(n))
		data = pb
		if acc.write {
			csp := f.tr.Time(trace.PhaseCopy, at, n)
			f.eng.packUser(pb, acc.buf, mem, skip, n)
			f.Stats.CopyNs += csp.End()
		}
	case contig:
		u := mem.t.TrueLB() + skip
		data = acc.buf[u : u+n]
	}
	segs := f.segs
	switch {
	case f.viewBE != nil:
	case !list:
		segs = append(segs, storage.Segment{Off: acc.lo + skip, Buf: data})
	default:
		sb := &f.sb
		sb.segs = segs
		if data != nil {
			sb.mem, sb.d0 = data, a
			vc.eachRun(n, sb)
		} else {
			sb.mem, sb.d0 = acc.buf, 0
			vc.eachUserRun(n, mem, skip, sb)
		}
		segs = sb.segs
		sb.segs, sb.mem = nil, nil
	}
	ph := trace.PhasePreRead
	if acc.write {
		ph = trace.PhaseWriteBack
	}
	sp := f.tr.Time(ph, at, n)
	switch {
	case f.viewBE != nil && acc.write:
		err = f.viewBE.ViewWrite(f.viewHandle, data, a)
		f.Stats.ViewWrites++
	case f.viewBE != nil:
		err = f.viewBE.ViewRead(f.viewHandle, data, a)
		f.Stats.ViewReads++
	case acc.write:
		// Another rank's sieve window may hold these bytes: hold their
		// span, so that no read-modify-write in flight undoes them.
		lo, hi := storage.SegsSpan(segs)
		f.sh.locks.Lock(lo, hi)
		err = f.sh.b.WriteAtv(segs)
		f.sh.locks.Unlock(lo, hi)
		f.Stats.VectoredWrites++
		f.Stats.DirectWrites += int64(len(segs))
	default:
		err = f.sh.b.ReadAtv(segs)
		f.Stats.VectoredReads++
		f.Stats.DirectReads += int64(len(segs))
	}
	f.Stats.StorageNs += sp.End()
	clear(segs)
	f.segs = segs[:0]
	if pb != nil && !acc.write && err == nil {
		csp := f.tr.Time(trace.PhaseCopy, at, n)
		f.eng.unpackUser(acc.buf, pb, mem, skip, n)
		f.Stats.CopyNs += csp.End()
	}
	return pb, err
}

// segBuilder turns the runs a viewCursor enumerates into the owner
// mover's segments: the buffers of the segments it appends are slices of
// mem, and a piece that continues the previous one both in the file and
// in mem extends that segment instead — runs that abut across an instance
// or group boundary, which the program and the ol-list keep apart.  File
// owns one, its emit functions bound once at Open, so that describing a
// batch allocates nothing.
type segBuilder struct {
	segs            []storage.Segment
	mem             []byte
	fileEnd, memEnd int64 // ends of the piece added last
	// A piece of view data byte x lies at mem offset x-d0; a run at view
	// buffer offset y (onRuns) lies at file offset disp+y.
	d0, disp int64

	onRuns  fotf.EmitFunc                    // for fotf.Cursor.Runs
	onPiece func(fileOff, dataOff, ln int64) // for an ol-list cursor and fotf.RunsFused
}

func (b *segBuilder) add(fileOff, dataOff, ln int64) {
	memOff := dataOff - b.d0
	if n := len(b.segs); n > 0 && fileOff == b.fileEnd && memOff == b.memEnd {
		sg := &b.segs[n-1]
		sg.Buf = sg.Buf[:int64(len(sg.Buf))+ln] // still within mem: the slice was cut from it
	} else {
		b.segs = append(b.segs, storage.Segment{Off: fileOff, Buf: b.mem[memOff : memOff+ln]})
	}
	b.fileEnd, b.memEnd = fileOff+ln, memOff+ln
}

func (b *segBuilder) addRuns(bufOff, dataOff, runLen, stride, n int64) {
	for i := int64(0); i < n; i++ {
		b.add(b.disp+bufOff+i*stride, dataOff+i*runLen, runLen)
	}
}
