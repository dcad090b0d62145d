package core

import (
	"repro/internal/datatype"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Independent I/O.  The four memory/file contiguity combinations of
// Figure 1 take different paths:
//
//	c-c:   direct contiguous backend access;
//	nc-c:  stage through the pack buffer (pack/unpack the memtype);
//	c-nc:  data sieving on the fileview, user buffer used directly;
//	nc-nc: data sieving with one fused copy between user buffer and
//	       sieve window where the engine has one, else combined with
//	       pack-buffer staging (Figure 3).

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

	if f.atomic {
		// Atomic mode: hold the whole access range for the duration so
		// overlapping concurrent accesses serialize as units.
		lo := f.eng.dataToFileStart(d0)
		hi := f.eng.dataToFileEnd(d0 + d)
		unlock := f.sh.locks.Lock(lo, hi)
		defer unlock()
	}

	if f.v.ftype.ContiguousTiled() {
		start := f.eng.dataToFileStart(d0)
		if memContig {
			// c-c: direct contiguous access.
			m0 := memtype.TrueLB()
			if write {
				_, err := f.sh.b.WriteAt(buf[m0:m0+d], start)
				return err
			}
			return storage.ReadFull(f.sh.b, buf[m0:m0+d], start)
		}
		// nc-c: stage through the pack buffer.
		pb := f.bp.Get(int(min(int64(f.opts.PackBufSize), d)))
		defer f.bp.Put(pb)
		for done := int64(0); done < d; {
			n := min(int64(len(pb)), d-done)
			if write {
				f.eng.packUser(pb, buf, mem, done, n)
				if _, err := f.sh.b.WriteAt(pb[:n], start+done); err != nil {
					return err
				}
			} else {
				if err := storage.ReadFull(f.sh.b, pb[:n], start+done); err != nil {
					return err
				}
				f.eng.unpackUser(buf, pb, mem, done, n)
			}
			done += n
		}
		return nil
	}

	// Non-contiguous fileview: data sieving over the file range that
	// backs data [d0, d0+d).
	lo := f.eng.dataToFileStart(d0)
	hi := f.eng.dataToFileEnd(d0 + d)

	// Sieving-vs-direct decision (the paper's §5 outlook): when the
	// access is sparse, reading/writing whole sieve windows moves mostly
	// useless bytes and the RMW write-back doubles the traffic; below
	// the density threshold, issue one backend access per block instead.
	if f.opts.SieveDensity > 0 && float64(d) < f.opts.SieveDensity*float64(hi-lo) {
		return f.transferDirect(d0, d, buf, mem, memContig, write)
	}

	win := f.bp.Get(int(min(int64(f.opts.SieveBufSize), hi-lo)))
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
			// In atomic mode the whole access range is already held
			// (and the lock table is not reentrant); otherwise lock the
			// window for the read-modify-write cycle.
			unlock := func() {}
			if !f.atomic {
				unlock = f.sh.locks.Lock(winLo, winHi)
			}
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
			unlock()
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
			*pb = f.bp.Get(f.opts.PackBufSize)
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

// transferDirect performs a non-contiguous independent access as direct
// contiguous backend accesses, one per run of the fileview — the
// "multiple file accesses" alternative to data sieving.  No
// read-modify-write and no byte-range locks are needed because every
// backend access touches exactly the bytes of the view.
//
// The runs are gathered into vectored batches (one preadv/pwritev-style
// backend call each where the backend has one, storage.ReadAtv/WriteAtv's
// loop elsewhere).  With contiguous memory the user buffer is the packed
// data and the whole access is one batch; so it is for a non-contiguous
// layout the engine can walk together with the fileview
// (viewCursor.eachUserRun): the segments then point into the user buffer
// and no pack buffer is drawn.  Otherwise the access goes a pack buffer
// at a time.  Stats counts both: DirectReads/DirectWrites are the
// logical runs, VectoredReads/VectoredWrites the batched calls.
func (f *File) transferDirect(d0, d int64, buf []byte, mem *memState, memContig bool, write bool) error {
	var vc viewCursor
	if f.viewBE == nil {
		// The view-addressed path needs no local fileview walk at all;
		// only the offset-list path enumerates runs.
		vc = f.eng.seekData(d0)
	}

	// The batch array lives with the handle: for short runs it is as
	// large as the data, and growing it afresh per access cost more than
	// the vectored call saves.  Its buffer references are dropped on the
	// way out so that it pins neither user nor pooled memory.
	segs, used := f.segs, 0
	defer func() {
		clear(segs[:used])
		f.segs = segs[:0]
	}()
	// vectored issues the gathered batch.
	vectored := func() error {
		used = max(used, len(segs))
		if len(segs) == 0 {
			return nil
		}
		if write {
			f.Stats.DirectWrites += int64(len(segs))
			f.Stats.VectoredWrites++
			return storage.WriteAtv(f.sh.b, segs)
		}
		f.Stats.DirectReads += int64(len(segs))
		f.Stats.VectoredReads++
		return storage.ReadAtv(f.sh.b, segs)
	}

	if vc != nil && !memContig {
		fused := vc.eachUserRun(d, mem, 0, func(fileOff, userOff, ln int64) {
			segs = append(segs, storage.Segment{Off: fileOff, Buf: buf[userOff : userOff+ln]})
		})
		if fused {
			return vectored()
		}
	}

	// Process the access in data-contiguous chunks: all of it when the
	// user buffer is the packed data, else a pack buffer at a time.
	var pb []byte
	chunk := d
	if !memContig {
		pb = f.bp.Get(int(min(int64(f.opts.PackBufSize), d)))
		defer f.bp.Put(pb)
		chunk = int64(len(pb))
	}
	var ioErr error
	for m := int64(0); m < d && ioErr == nil; m += chunk {
		c := min(chunk, d-m)
		var cb []byte
		if memContig {
			u := mem.t.TrueLB() + m
			cb = buf[u : u+c]
		} else {
			cb = pb[:c]
			if write {
				f.eng.packUser(cb, buf, mem, m, c)
			}
		}
		if f.viewBE != nil {
			// View-addressed transfer: the chunk is one constant-size
			// (handle, offset, count) request; the backend (a remote
			// I/O-server tier) evaluates the noncontiguous pattern on
			// its side.
			if write {
				ioErr = f.viewBE.ViewWrite(f.viewHandle, cb, d0+m)
				f.Stats.ViewWrites++
			} else {
				ioErr = f.viewBE.ViewRead(f.viewHandle, cb, d0+m)
				f.Stats.ViewReads++
			}
		} else {
			segs = segs[:0]
			vc.eachRun(c, func(fileOff, dataOff, ln int64) {
				piece := cb[dataOff-(d0+m) : dataOff-(d0+m)+ln]
				segs = append(segs, storage.Segment{Off: fileOff, Buf: piece})
			})
			ioErr = vectored()
		}
		if ioErr == nil && !memContig && !write {
			f.eng.unpackUser(buf, cb, mem, m, c)
		}
	}
	return ioErr
}
