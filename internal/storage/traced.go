package storage

import (
	"fmt"

	"repro/internal/trace"
)

// Traced wraps a Backend so every operation records a span on a
// tracer — normally the collector's shared storage-backend track, which
// is where cross-rank contention on the common file becomes visible.
// The Window field of each span carries the file offset of the
// operation.  A nil tracer makes the wrapper transparent.
type Traced struct {
	layer
	tr *trace.Tracer
}

// NewTraced wraps b; spans are recorded on tr.
func NewTraced(b Backend, tr *trace.Tracer) *Traced {
	t := &Traced{tr: tr}
	t.layer = layer{Backend: b, ic: t}
	return t
}

// tracedPhase is the span an op records; an op with none (register-view,
// epoch abort) passes.
var tracedPhase = [numOpKinds]trace.Phase{
	opRead:        trace.PhaseStorageRead,
	opWrite:       trace.PhaseStorageWrite,
	opReadv:       trace.PhaseStorageRead,
	opWritev:      trace.PhaseStorageWrite,
	opViewRead:    trace.PhaseStorageViewRead,
	opViewWrite:   trace.PhaseStorageViewWrite,
	opTruncate:    trace.PhaseStorageTruncate,
	opSync:        trace.PhaseStorageSync,
	opEpochSeal:   trace.PhaseEpochSeal,
	opEpochCommit: trace.PhaseEpochCommit,
}

// intercept records one span per op — a batch is one — carrying the
// bytes asked for, or the count a plain read or write returned.
func (t *Traced) intercept(o op, next *layer) result {
	ph := tracedPhase[o.kind]
	if ph == "" {
		return next.exec(o)
	}
	sp := t.tr.Begin(ph, o.off, o.size())
	res := next.exec(o)
	if o.kind == opRead || o.kind == opWrite {
		sp.EndBytes(int64(res.n))
	} else {
		sp.End()
	}
	return res
}

// SetTracer arms a Chaos backend to emit an instant event for every
// injected fault, tagging the trace timeline with the exact offset and
// fault class.  Must be called before the backend is shared across
// goroutines.
func (c *Chaos) SetTracer(tr *trace.Tracer) { c.tr = tr }

// instant records a fault injection on the trace, skipping the detail
// formatting entirely when tracing is off.
func (c *Chaos) instant(ph trace.Phase, off int64, n int, format string, args ...any) {
	if !c.tr.Enabled() {
		return
	}
	c.tr.Instant(ph, off, int64(n), fmt.Sprintf(format, args...))
}

// SetTracer arms a Resilient backend to emit an instant event for every
// retry and every abandoned operation.  Must be called before the
// backend is shared across goroutines.
func (r *Resilient) SetTracer(tr *trace.Tracer) { r.tr = tr }
