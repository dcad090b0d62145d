package storage

import (
	"repro/internal/datatype"
	"repro/internal/trace"
)

// The storage seam.  Every pass-through wrapper (Resilient, Traced,
// Throttled, Instrumented, Faulty, Chaos) embeds one layer, which
// implements Backend and its four extensions once: a fallible call
// becomes an op, the op goes to the wrapper's single intercept, and the
// wrapper runs it on the inner backend with next.exec — zero, one or
// several times, before or after whatever it injects.  A retry, a fault,
// a charge, a count or a span is therefore written in one place per
// wrapper, and a wrapper cannot lose a capability of the backend under
// it by not spelling a method out.

// opKind names the fallible calls of Backend, Vectored, ViewBackend and
// EpochBackend.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opReadv
	opWritev
	opViewRead
	opViewWrite
	opTruncate
	opSync
	opRegisterView
	opEpochSeal
	opEpochCommit
	opEpochAbort
	numOpKinds
)

// opDir is the direction an op moves data in; control ops move none.
type opDir uint8

const (
	dirNone opDir = iota
	dirRead
	dirWrite
)

func (k opKind) dir() opDir {
	switch k {
	case opRead, opReadv, opViewRead:
		return dirRead
	case opWrite, opWritev, opViewWrite:
		return dirWrite
	}
	return dirNone
}

// view reports whether k is a view transfer: addressed in view-data
// bytes and all-or-nothing.
func (k opKind) view() bool { return k == opViewRead || k == opViewWrite }

// batch reports whether k carries a segment batch rather than a buffer.
func (k opKind) batch() bool { return k == opReadv || k == opWritev }

// op describes one call.  It is passed by value, so a wrapped call
// allocates nothing.
type op struct {
	kind opKind
	// off is where the op applies: the file offset of a read or write,
	// the lowest offset of a batch, the data offset of a view transfer,
	// the new size of a truncate, the displacement of a register-view,
	// the id of an epoch op, trace.NoWindow for sync.
	off  int64
	buf  []byte         // read, write, view transfers
	segs []Segment      // readv, writev
	view ViewHandle     // view transfers
	typ  *datatype.Type // register-view
}

// size is the number of bytes the op asks to move (0 for control ops).
func (o op) size() int64 {
	if o.kind.batch() {
		return segsLen(o.segs)
	}
	return int64(len(o.buf))
}

// span is the range [off, off+n) the op touches, a batch from its
// lowest to its highest byte.
func (o op) span() (off, n int64) {
	if o.kind.batch() {
		lo, hi := SegsSpan(o.segs)
		return lo, hi - lo
	}
	return o.off, int64(len(o.buf))
}

// prefix is the op cut down to its first n bytes (0 < n < size).
func (o op) prefix(n int64) op {
	if o.kind.batch() {
		o.segs = clipSegs(o.segs, n)
	} else {
		o.buf = o.buf[:n]
	}
	return o
}

// clipSegs returns a batch covering exactly the first n bytes of segs
// (n < total), splitting the boundary segment.
func clipSegs(segs []Segment, n int64) []Segment {
	out := make([]Segment, 0, len(segs))
	for _, s := range segs {
		l := int64(len(s.Buf))
		if n <= 0 {
			break
		}
		if l > n {
			out = append(out, Segment{Off: s.Off, Buf: s.Buf[:n]})
			break
		}
		out = append(out, s)
		n -= l
	}
	return out
}

// result is what an op yields: n, the count a plain read or write
// returned; h, the handle of a register-view; err.
type result struct {
	n   int
	h   ViewHandle
	err error
}

// interceptor is a wrapper's one function.  It decides what happens
// around the op and calls next.exec to run it on the inner backend.
type interceptor interface {
	intercept(o op, next *layer) result
}

// layer is the part of a pass-through wrapper that is the same for all
// of them.  The calls that cannot fail (Size, StartWriteback, EpochBegin,
// EpochEnd) and the capability probes go straight to the inner backend,
// and a view or epoch call over a backend without the extension is
// answered here, before the interceptor runs — so a seeded schedule
// never spends a draw, nor a counter a count, on a call that could not
// have happened.
type layer struct {
	// Backend is the inner backend, a field of every wrapper through the
	// embedding: w.Backend is what w wraps.
	Backend Backend
	ic      interceptor
}

func (l *layer) run(o op) result { return l.ic.intercept(o, l) }

// exec runs o on the inner backend.
func (l *layer) exec(o op) result {
	switch o.kind {
	case opRead:
		n, err := l.Backend.ReadAt(o.buf, o.off)
		return result{n: n, err: err}
	case opWrite:
		n, err := l.Backend.WriteAt(o.buf, o.off)
		return result{n: n, err: err}
	case opReadv:
		return result{err: ReadAtv(l.Backend, o.segs)}
	case opWritev:
		return result{err: WriteAtv(l.Backend, o.segs)}
	case opTruncate:
		return result{err: l.Backend.Truncate(o.off)}
	case opSync:
		return result{err: l.Backend.Sync()}
	case opRegisterView:
		h, err := l.Backend.(ViewBackend).RegisterView(o.off, o.typ)
		return result{h: h, err: err}
	case opViewRead:
		return result{err: l.Backend.(ViewBackend).ViewRead(o.view, o.buf, o.off)}
	case opViewWrite:
		return result{err: l.Backend.(ViewBackend).ViewWrite(o.view, o.buf, o.off)}
	case opEpochSeal:
		return result{err: l.Backend.(EpochBackend).EpochSeal(uint64(o.off))}
	case opEpochCommit:
		return result{err: l.Backend.(EpochBackend).EpochCommit(uint64(o.off))}
	case opEpochAbort:
		return result{err: l.Backend.(EpochBackend).EpochAbort(uint64(o.off))}
	}
	panic("storage: unknown op kind")
}

// ReadAt implements io.ReaderAt.
func (l *layer) ReadAt(p []byte, off int64) (int, error) {
	r := l.run(op{kind: opRead, off: off, buf: p})
	return r.n, r.err
}

// WriteAt implements io.WriterAt.
func (l *layer) WriteAt(p []byte, off int64) (int, error) {
	r := l.run(op{kind: opWrite, off: off, buf: p})
	return r.n, r.err
}

// Size implements Backend.
func (l *layer) Size() int64 { return l.Backend.Size() }

// StartWriteback implements Writeback: a hint, which cannot fail, so it
// goes straight to the inner backend as Size does — no op, nothing to
// retry, inject, charge or count — and to nothing when the inner backend
// has no writeback to start.
func (l *layer) StartWriteback(off, n int64) {
	if w, ok := l.Backend.(Writeback); ok {
		w.StartWriteback(off, n)
	}
}

// Truncate implements Backend.
func (l *layer) Truncate(n int64) error {
	return l.run(op{kind: opTruncate, off: n}).err
}

// Sync implements Backend.
func (l *layer) Sync() error {
	return l.run(op{kind: opSync, off: trace.NoWindow}).err
}

// ReadAtv implements Vectored.  A batch is one op — one retry unit, one
// fault draw, one latency charge, one counted access, one span — which
// is the cost model the vectored path exists to change: n contiguous
// runs cost one operation, not n.
func (l *layer) ReadAtv(segs []Segment) error {
	lo, _ := SegsSpan(segs)
	return l.run(op{kind: opReadv, off: lo, segs: segs}).err
}

// WriteAtv implements Vectored.
func (l *layer) WriteAtv(segs []Segment) error {
	lo, _ := SegsSpan(segs)
	return l.run(op{kind: opWritev, off: lo, segs: segs}).err
}

// SupportsViews implements ViewBackend: the inner backend's answer.
func (l *layer) SupportsViews() bool {
	_, ok := AsViewBackend(l.Backend)
	return ok
}

// RegisterView implements ViewBackend.
func (l *layer) RegisterView(disp int64, ftype *datatype.Type) (ViewHandle, error) {
	if !l.SupportsViews() {
		return 0, ErrNoViews
	}
	r := l.run(op{kind: opRegisterView, off: disp, typ: ftype})
	return r.h, r.err
}

// ViewRead implements ViewBackend.
func (l *layer) ViewRead(h ViewHandle, p []byte, d0 int64) error {
	if !l.SupportsViews() {
		return ErrNoViews
	}
	return l.run(op{kind: opViewRead, off: d0, buf: p, view: h}).err
}

// ViewWrite implements ViewBackend.
func (l *layer) ViewWrite(h ViewHandle, p []byte, d0 int64) error {
	if !l.SupportsViews() {
		return ErrNoViews
	}
	return l.run(op{kind: opViewWrite, off: d0, buf: p, view: h}).err
}

// SupportsEpochs implements EpochBackend: the inner backend's answer.
func (l *layer) SupportsEpochs() bool {
	_, ok := AsEpochBackend(l.Backend)
	return ok
}

// EpochBegin implements EpochBackend.
func (l *layer) EpochBegin(id uint64) {
	if eb, ok := AsEpochBackend(l.Backend); ok {
		eb.EpochBegin(id)
	}
}

// epochOp runs one of seal, commit and abort.
func (l *layer) epochOp(kind opKind, id uint64) error {
	if !l.SupportsEpochs() {
		return ErrNoEpochs
	}
	return l.run(op{kind: kind, off: int64(id)}).err
}

// EpochSeal implements EpochBackend.
func (l *layer) EpochSeal(id uint64) error { return l.epochOp(opEpochSeal, id) }

// EpochCommit implements EpochBackend.
func (l *layer) EpochCommit(id uint64) error { return l.epochOp(opEpochCommit, id) }

// EpochAbort implements EpochBackend.
func (l *layer) EpochAbort(id uint64) error { return l.epochOp(opEpochAbort, id) }

// EpochEnd implements EpochBackend.
func (l *layer) EpochEnd(id uint64) {
	if eb, ok := AsEpochBackend(l.Backend); ok {
		eb.EpochEnd(id)
	}
}
