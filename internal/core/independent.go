package core

import (
	"repro/internal/datatype"
	"repro/internal/fotf"
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
			// Another rank's window may hold these bytes: lock across
			// the read-modify-write so no update between its read and
			// its write-back is lost.
			unlock := f.sh.locks.Lock(winLo, winHi)
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
// The owner mover (moveOwn) issues the runs as vectored batches (one
// preadv/pwritev-style backend call each where the backend has one,
// storage.ReadAtv/WriteAtv's loop elsewhere).  With contiguous memory the
// user buffer is the packed data and the whole access is one batch; so it
// is for a non-contiguous layout the engine walks together with the
// fileview (viewCursor.fuses): the segments then point into the user
// buffer and no pack buffer is drawn.  Otherwise the access goes a pack
// buffer at a time.  A backend that evaluates registered views takes
// each such chunk as one view request instead, and no run is listed.
func (f *File) transferDirect(d0, d int64, buf []byte, mem *memState, memContig bool, write bool) error {
	if f.viewBE != nil {
		return f.transferView(d0, d, buf, mem, memContig, write)
	}
	acc := &collAccess{d0: d0, d: d, mem: mem, buf: buf, write: write}
	vc := f.eng.seekData(d0)
	inPlace := memContig || vc.fuses(mem)
	chunk := d
	if !inPlace {
		chunk = int64(f.opts.PackBufSize)
	}
	for m := int64(0); m < d; m += chunk {
		pb, err := f.moveOwn(vc, acc, d0+m, d0+min(m+chunk, d), inPlace, false, trace.NoWindow)
		if pb != nil {
			f.bp.Put(pb)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// transferView is transferDirect's view-addressed branch: each chunk is
// one constant-size (handle, offset, count) request, and the backend (a
// remote I/O-server tier) evaluates the noncontiguous pattern on its
// side.
func (f *File) transferView(d0, d int64, buf []byte, mem *memState, memContig bool, write bool) error {
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
		if write {
			ioErr = f.viewBE.ViewWrite(f.viewHandle, cb, d0+m)
			f.Stats.ViewWrites++
		} else {
			ioErr = f.viewBE.ViewRead(f.viewHandle, cb, d0+m)
			f.Stats.ViewReads++
		}
		if ioErr == nil && !memContig && !write {
			f.eng.unpackUser(buf, cb, mem, m, c)
		}
	}
	return ioErr
}

// moveOwn is the owner mover: it moves data bytes [a, b) of this rank's
// own view, from vc's position on, between the backend and the user
// buffer of acc by one vectored call — list I/O, one segment per stretch
// of the view's runs.  With inPlace the segments point into the user
// buffer, which is the packed data when the memory is contiguous and
// otherwise is cut with the fileview (vc must fuse the memtype); else
// they point into a pooled pack buffer, packed first for a write and, for
// a read that hold does not keep packed, unpacked after.  That buffer, if
// one was drawn, is returned to the caller, whose it is.  The copies are
// timed as PhaseCopy and the call as PhaseWriteBack or PhasePreRead, in
// spans of window at, and the mover is the one site that counts the
// Direct* and Vectored* stats.
func (f *File) moveOwn(vc viewCursor, acc *collAccess, a, b int64, inPlace, hold bool, at int64) (pb []byte, err error) {
	n, skip, mem, sb := b-a, a-acc.d0, acc.mem, &f.sb
	sb.segs = f.segs
	switch {
	case !inPlace:
		pb = f.bp.Get(int(n))
		if acc.write {
			csp := f.tr.Time(trace.PhaseCopy, at, n)
			f.eng.packUser(pb, acc.buf, mem, skip, n)
			f.Stats.CopyNs += csp.End()
		}
		sb.mem, sb.d0 = pb, a
		vc.eachRun(n, sb)
	case memIsContig(mem.t, mem.count):
		u := mem.t.TrueLB() + skip
		sb.mem, sb.d0 = acc.buf[u:u+n], a
		vc.eachRun(n, sb)
	default:
		sb.mem, sb.d0 = acc.buf, 0
		vc.eachUserRun(n, mem, skip, sb)
	}
	segs := sb.segs
	sb.segs, sb.mem = nil, nil
	if acc.write {
		sp := f.tr.Time(trace.PhaseWriteBack, at, n)
		err = storage.WriteAtv(f.sh.b, segs)
		f.Stats.StorageNs += sp.End()
		f.Stats.VectoredWrites++
		f.Stats.DirectWrites += int64(len(segs))
	} else {
		sp := f.tr.Time(trace.PhasePreRead, at, n)
		err = storage.ReadAtv(f.sh.b, segs)
		f.Stats.StorageNs += sp.End()
		f.Stats.VectoredReads++
		f.Stats.DirectReads += int64(len(segs))
	}
	clear(segs)
	f.segs = segs[:0]
	if pb != nil && !acc.write && !hold && err == nil {
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
