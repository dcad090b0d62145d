package storage

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// Vectored passthrough for the wrapper backends.  Each wrapper treats
// one ReadAtv/WriteAtv batch as one operation — one retry unit, one
// fault draw, one latency charge, one counted access, one span — which
// is exactly the cost model the vectored path exists to change: n
// contiguous runs cost one operation, not n.

// ReadAtv implements Vectored for Resilient: the whole batch is the
// retry unit (Backend batches are idempotent, so a reissue repairs any
// partial delivery).
func (r *Resilient) ReadAtv(segs []Segment) error {
	lo, _ := SegsSpan(segs)
	return r.do(lo, func() error { return ReadAtv(r.Backend, segs) })
}

// WriteAtv implements Vectored for Resilient.
func (r *Resilient) WriteAtv(segs []Segment) error {
	lo, _ := SegsSpan(segs)
	return r.do(lo, func() error { return WriteAtv(r.Backend, segs) })
}

// ReadAtv implements Vectored for Traced: one span covering the batch.
func (t *Traced) ReadAtv(segs []Segment) error {
	lo, _ := SegsSpan(segs)
	sp := t.tr.Begin(trace.PhaseStorageRead, lo, segsLen(segs))
	err := ReadAtv(t.Backend, segs)
	sp.EndBytes(segsLen(segs))
	return err
}

// WriteAtv implements Vectored for Traced.
func (t *Traced) WriteAtv(segs []Segment) error {
	lo, _ := SegsSpan(segs)
	sp := t.tr.Begin(trace.PhaseStorageWrite, lo, segsLen(segs))
	err := WriteAtv(t.Backend, segs)
	sp.EndBytes(segsLen(segs))
	return err
}

// ReadAtv implements Vectored for Throttled: the batch pays one Latency
// plus its total bytes over the bandwidth — the cost model under which
// batching n runs into one call is the win.
func (t *Throttled) ReadAtv(segs []Segment) error {
	t.charge(int(segsLen(segs)), t.ReadBW)
	return ReadAtv(t.Backend, segs)
}

// WriteAtv implements Vectored for Throttled.
func (t *Throttled) WriteAtv(segs []Segment) error {
	t.charge(int(segsLen(segs)), t.WriteBW)
	return WriteAtv(t.Backend, segs)
}

// ReadAtv implements Vectored for Instrumented: the batch counts as one
// read — Reads/Writes approximate syscalls, and a preadv is one.
func (in *Instrumented) ReadAtv(segs []Segment) error {
	t0 := time.Now()
	err := ReadAtv(in.Backend, segs)
	in.readNs.Add(time.Since(t0).Nanoseconds())
	in.reads.Add(1)
	if err == nil {
		in.bytesRead.Add(segsLen(segs))
	}
	return err
}

// WriteAtv implements Vectored for Instrumented.
func (in *Instrumented) WriteAtv(segs []Segment) error {
	t0 := time.Now()
	err := WriteAtv(in.Backend, segs)
	in.writeNs.Add(time.Since(t0).Nanoseconds())
	in.writes.Add(1)
	if err == nil {
		in.bytesWritten.Add(segsLen(segs))
	}
	return err
}

// ReadAtv implements Vectored for Faulty: the batch trips a read fault
// when its file span overlaps an armed range, or as one counted
// operation.
func (f *Faulty) ReadAtv(segs []Segment) error {
	lo, hi := SegsSpan(segs)
	if f.reads.trip(lo, hi-lo) {
		return ErrInjected
	}
	return ReadAtv(f.Backend, segs)
}

// WriteAtv implements Vectored for Faulty.
func (f *Faulty) WriteAtv(segs []Segment) error {
	lo, hi := SegsSpan(segs)
	if f.writes.trip(lo, hi-lo) {
		return ErrInjected
	}
	return WriteAtv(f.Backend, segs)
}

// ReadAtv implements Vectored for Chaos: one fault draw per batch, in
// the same class order as ReadAt.  A short read delivers a strict
// prefix of the batch and reports a transient error.
func (c *Chaos) ReadAtv(segs []Segment) error {
	lo, _ := SegsSpan(segs)
	total := segsLen(segs)
	c.maybeSpike(lo)
	if c.hit(c.cfg.PermanentRead) {
		c.permanents.Add(1)
		c.instant(trace.PhaseChaosPermanent, lo, int(total), "vectored read fault")
		return fmt.Errorf("storage: chaos read fault at offset %d: %w", lo, ErrPermanent)
	}
	if c.hit(c.cfg.TransientRead) {
		c.transients.Add(1)
		c.instant(trace.PhaseChaosTransient, lo, int(total), "vectored read fault")
		return fmt.Errorf("storage: chaos read fault at offset %d: %w", lo, ErrTransient)
	}
	if total > 1 && c.hit(c.cfg.ShortRead) {
		c.shortReads.Add(1)
		n := int64(c.cut(int(total)))
		if err := ReadAtv(c.Backend, clipSegs(segs, n)); err != nil {
			return err
		}
		c.instant(trace.PhaseChaosShortRead, lo, int(n), "%d of %d bytes", n, total)
		return fmt.Errorf("storage: chaos short read (%d of %d bytes) at offset %d: %w",
			n, total, lo, ErrTransient)
	}
	return ReadAtv(c.Backend, segs)
}

// WriteAtv implements Vectored for Chaos.  A torn write persists a
// strict prefix of the batch and reports a transient error.
func (c *Chaos) WriteAtv(segs []Segment) error {
	lo, _ := SegsSpan(segs)
	total := segsLen(segs)
	c.maybeSpike(lo)
	if c.hit(c.cfg.PermanentWrite) {
		c.permanents.Add(1)
		c.instant(trace.PhaseChaosPermanent, lo, int(total), "vectored write fault")
		return fmt.Errorf("storage: chaos write fault at offset %d: %w", lo, ErrPermanent)
	}
	if c.hit(c.cfg.TransientWrite) {
		c.transients.Add(1)
		c.instant(trace.PhaseChaosTransient, lo, int(total), "vectored write fault")
		return fmt.Errorf("storage: chaos write fault at offset %d: %w", lo, ErrTransient)
	}
	if total > 1 && c.hit(c.cfg.TornWrite) {
		c.tornWrites.Add(1)
		n := int64(c.cut(int(total)))
		if err := WriteAtv(c.Backend, clipSegs(segs, n)); err != nil {
			return err
		}
		c.instant(trace.PhaseChaosTornWrite, lo, int(n), "%d of %d bytes", n, total)
		return fmt.Errorf("storage: chaos torn write (%d of %d bytes) at offset %d: %w",
			n, total, lo, ErrTransient)
	}
	return WriteAtv(c.Backend, segs)
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
