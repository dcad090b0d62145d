package storage

import (
	"fmt"

	"repro/internal/trace"
)

// SetTracer arms an Instrumented backend to record one span per op
// (tracedPhase) on tr — normally the collector's shared storage-backend
// track, which is where cross-rank contention on the common file becomes
// visible.  The Window field of each span carries the file offset of the
// op.  Must be called before the backend is shared across goroutines.
func (in *Instrumented) SetTracer(tr *trace.Tracer) { in.tr = tr }

// tracedPhase is the span an op records on an Instrumented backend's
// tracer; an op with none (register-view, epoch abort) passes.
var tracedPhase = [numOpKinds]trace.Phase{
	opRead:        trace.PhaseStorageRead,
	opWrite:       trace.PhaseStorageWrite,
	opReadv:       trace.PhaseStorageRead,
	opWritev:      trace.PhaseStorageWrite,
	opSend:        trace.PhaseStorageRead,
	opViewRead:    trace.PhaseStorageViewRead,
	opViewWrite:   trace.PhaseStorageViewWrite,
	opTruncate:    trace.PhaseStorageTruncate,
	opSync:        trace.PhaseStorageSync,
	opEpochSeal:   trace.PhaseEpochSeal,
	opEpochCommit: trace.PhaseEpochCommit,
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
