package ioserver

import (
	"sync/atomic"

	"repro/internal/fotf"
	"repro/internal/pool"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Server-side data sieving.  A sparse access resolves to many small
// pieces of the stripe; issued one by one each piece is a system call
// (and, for File, a page-cache lookup) of its own.  When the pieces are
// page-dense the kernel touches every page of their span anyway, so the
// server moves the span instead: one read of the window, the pieces
// copied in or out in memory, and for writes one write back.  Only the
// stripe's sole owner may do that — a write-back re-writes the gaps with
// what the window read, which is safe only while nothing else lands in
// them, and every writer to this stripe is in this process, behind the
// server's range lock.  DESIGN.md §10 has the argument in full.  Whether
// pieces are dense enough to sieve is storage.PageDense, computed from
// the pieces themselves.

// sieveWindow bounds one window: the buffer a connection holds while it
// moves a request, whatever the request's span.
const sieveWindow = 256 << 10

// sieve moves one window: it reads local span [lo, hi) of the stripe
// into a pooled buffer, lets move copy the pieces between the buffer
// and the request's bytes, and for a write puts the buffer back — under
// the range lock from before the read until after the write, so that no
// other writer's bytes land in the gaps in between and get undone.
// useful is the request bytes the window carries, for the trace.
func (s *Server) sieve(lo, hi, useful int64, write bool, move func(win []byte)) error {
	sp := s.cfg.Tracer.BeginIO(trace.PhaseServerSieve, lo, useful)
	defer sp.End()
	win := pool.Global.Get(int(hi - lo))
	defer pool.Global.Put(win)
	if write {
		s.locks.Lock(lo, hi)
		defer s.locks.Unlock(lo, hi)
	}
	if err := storage.ReadFull(s.cfg.Backend, win, lo); err != nil {
		return err
	}
	move(win)
	atomic.AddInt64(&s.stats.SieveWindows, 1)
	atomic.AddInt64(&s.stats.SieveBytes, hi-lo)
	if !write {
		return nil
	}
	atomic.AddInt64(&s.stats.SieveBytes, hi-lo)
	_, err := s.cfg.Backend.WriteAt(win, lo)
	return err
}

// vectored moves segs with one vectored call, a write under the range
// lock over the batch's span.
func (s *Server) vectored(segs []storage.Segment, write bool) error {
	if len(segs) == 0 {
		return nil
	}
	if !write {
		return s.cfg.Backend.ReadAtv(segs)
	}
	lo, hi := storage.SegsSpan(segs)
	s.locks.Lock(lo, hi)
	defer s.locks.Unlock(lo, hi)
	return s.cfg.Backend.WriteAtv(segs)
}

// moveSegs moves a batch of local segments against the stripe in batch
// order: every ascending stretch that one window holds and that is
// page-dense goes through the sieve, what lies between the stretches
// through vectored calls.
func (s *Server) moveSegs(segs []storage.Segment, write bool) error {
	rest := 0 // segs[rest:i] wait for a vectored call
	for i := 0; i < len(segs); {
		lo := segs[i].Off
		n, hi, useful := s.stretch(segs[i:])
		batch := segs[i : i+n]
		i += n
		if !storage.PageDense(hi-lo, useful, int64(n)) {
			continue
		}
		if err := s.vectored(segs[rest:i-n], write); err != nil {
			return err
		}
		rest = i
		err := s.sieve(lo, hi, useful, write, func(win []byte) {
			for _, sg := range batch {
				if write {
					copy(win[sg.Off-lo:], sg.Buf)
				} else {
					copy(sg.Buf, win[sg.Off-lo:])
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return s.vectored(segs[rest:], write)
}

// stretch measures the longest prefix of segs (at least the first) that
// ascends without overlap and fits one window: its length, the end of
// its span and the bytes it carries.
func (s *Server) stretch(segs []storage.Segment) (n int, hi, useful int64) {
	lo := segs[0].Off
	for _, sg := range segs {
		end := sg.Off + int64(len(sg.Buf))
		if n > 0 && (sg.Off < hi || end-lo > s.window) {
			break
		}
		n, hi, useful = n+1, end, useful+int64(len(sg.Buf))
	}
	return n, hi, useful
}

// unitPiece is one stripe unit's share of a window: data bytes [d0, d1)
// of the view, in a unit where a byte at view buffer offset o has local
// offset o + base.
type unitPiece struct{ base, d0, d1 int64 }

// viewMove carries one view request: the stripe's units arrive in data
// order (eachUnit) and gather into windows of at most the server's window
// size.  Each full window is moved — through the sieve when its runs are
// page-dense, by a vectored call of its runs otherwise — or, for a staged
// write, its runs are kept in st.segs for the journal.  The cursor is the
// view's one cut below a unit: its program, or the tree walk for a type
// that declined compilation.
type viewMove struct {
	st           *connState
	v            *serverView
	cur          fotf.Cursor
	write, stage bool
	// stream holds the stripe's bytes of the request in data order (the
	// payload of a write, the reply of a read, which grows as units
	// arrive); pos of them belong to windows already moved.
	stream []byte
	pos    int64

	// The window being gathered: its units, its local span, the stream
	// bytes it carries and the runs they are in.
	units        []unitPiece
	lo, hi       int64
	useful, runs int64
}

// addUnit gathers unit u's data [da, db) into the window, moving the
// window first when the unit no longer fits it.
func (m *viewMove) addUnit(u, da, db int64) error {
	srv := m.st.srv
	g := srv.cfg.Geom
	t := m.v.t
	base := m.v.disp - (u-u/int64(g.Count))*g.Unit
	for da < db {
		lo := fotf.StartPos(t, da) + base
		if len(m.units) == 0 {
			m.lo = lo
		}
		end, hi := db, fotf.EndPos(t, db)+base
		if hi-m.lo > srv.window {
			if len(m.units) > 0 {
				if err := m.flush(); err != nil {
					return err
				}
				continue
			}
			// A unit wider than a window: cut it at the window's end.
			end = fotf.BufToData(t, m.lo+srv.window-base)
			hi = fotf.EndPos(t, end) + base
		}
		if need := m.pos + m.useful + end - da; need > int64(len(m.stream)) {
			if m.write {
				return errShortStream(m.stream)
			}
			m.stream = extend(m.stream, need)
		}
		m.units = append(m.units, unitPiece{base, da, end})
		m.hi = hi
		m.useful += end - da
		m.runs += m.cur.RunCount(da, end)
		da = end
	}
	return nil
}

// flush moves the gathered window, or keeps its runs when staging, and
// empties it.
func (m *viewMove) flush() error {
	if len(m.units) == 0 {
		return nil
	}
	srv := m.st.srv
	part := m.stream[m.pos : m.pos+m.useful]
	var err error
	switch {
	case m.stage:
		m.segs(part)
	case storage.PageDense(m.hi-m.lo, m.useful, m.runs):
		err = srv.sieve(m.lo, m.hi, m.useful, m.write, func(win []byte) {
			for _, up := range m.units {
				n := up.d1 - up.d0
				m.cur.CopyRange(part[:n], win, up.d0, up.d1, m.lo-up.base, !m.write)
				part = part[n:]
			}
		})
	default:
		m.st.segs = m.st.segs[:0]
		m.segs(part)
		err = srv.vectored(m.st.segs, m.write)
	}
	m.pos += m.useful
	m.units, m.useful, m.runs = m.units[:0], 0, 0
	return err
}

// segs appends the window's runs to st.segs, as local segments over part,
// the stream bytes the window carries.
func (m *viewMove) segs(part []byte) {
	segs := m.st.segs
	for _, up := range m.units {
		m.cur.Runs(up.d0, up.d1, func(bufOff, dataOff, runLen, stride, n int64) {
			for i := int64(0); i < n; i++ {
				o := dataOff + i*runLen - up.d0
				segs = append(segs, storage.Segment{Off: bufOff + i*stride + up.base, Buf: part[o : o+runLen]})
			}
		})
		part = part[up.d1-up.d0:]
	}
	m.st.segs = segs
}

// extend returns buf lengthened to n bytes with its contents kept; when
// it must reallocate it at least doubles the capacity, so that a reply
// cut unit by unit copies each byte a bounded number of times and holds
// less than twice what it returns.
func extend(buf []byte, n int64) []byte {
	if int64(cap(buf)) >= n {
		return buf[:n]
	}
	nb := make([]byte, n, max(n, 2*int64(cap(buf))))
	copy(nb, buf)
	return nb
}
