package storage

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/trace"
)

// traced is b under an Instrumented that records its spans on tr.
func traced(b Backend, tr *trace.Tracer) *Instrumented {
	in := NewInstrumented(b)
	in.SetTracer(tr)
	return in
}

// TestTracedBackendSpans: every Backend operation through an
// Instrumented with a tracer records a span with the file offset and the
// bytes actually moved, and the counters count the data ops as without
// one.
func TestTracedBackendSpans(t *testing.T) {
	c := trace.NewCollector(64)
	b := traced(NewMem(), c.Storage())

	if _, err := b.WriteAt([]byte("hello"), 100); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 5)
	if _, err := b.ReadAt(p, 100); err != nil {
		t.Fatal(err)
	}
	if err := b.Truncate(50); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}

	evs := c.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4: %+v", len(evs), evs)
	}
	want := []struct {
		ph     trace.Phase
		window int64
		bytes  int64
	}{
		{trace.PhaseStorageWrite, 100, 5},
		{trace.PhaseStorageRead, 100, 5},
		{trace.PhaseStorageTruncate, 50, 0},
		{trace.PhaseStorageSync, trace.NoWindow, 0},
	}
	for i, w := range want {
		ev := evs[i]
		if ev.Phase != w.ph || ev.Window != w.window || ev.Bytes != w.bytes ||
			ev.Rank != trace.RankStorage || ev.Kind != trace.KindSpan {
			t.Errorf("event %d = %+v, want phase=%s window=%d bytes=%d", i, ev, w.ph, w.window, w.bytes)
		}
	}
	if st := b.Stats(); st.Reads != 1 || st.Writes != 1 || st.BytesRead != 5 || st.BytesWritten != 5 {
		t.Errorf("counters %+v, want one read and one write of 5 bytes each", st)
	}
}

// TestTracedNilTracerTransparent: an Instrumented with a nil tracer
// must behave exactly like the bare backend.
func TestTracedNilTracerTransparent(t *testing.T) {
	b := traced(NewMem(), nil)
	if _, err := b.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 1)
	if _, err := b.ReadAt(p, 0); err != nil {
		t.Fatal(err)
	}
	if p[0] != 'x' {
		t.Fatalf("read %q", p)
	}
}

// TestChaosEmitsFaultInstants: with probability-1 transient faults,
// every injection must land on the trace as an instant naming the fault
// class and offset.
func TestChaosEmitsFaultInstants(t *testing.T) {
	c := trace.NewCollector(64)
	ch := NewChaos(1, NewMem(), ChaosConfig{TransientRead: 1, TransientWrite: 1})
	ch.SetTracer(c.Storage())

	if _, err := ch.WriteAt([]byte("x"), 64); err == nil {
		t.Fatal("expected injected write fault")
	}
	if _, err := ch.ReadAt(make([]byte, 1), 128); err == nil {
		t.Fatal("expected injected read fault")
	}

	evs := c.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2: %+v", len(evs), evs)
	}
	if evs[0].Phase != trace.PhaseChaosTransient || evs[0].Window != 64 ||
		evs[0].Kind != trace.KindInstant || evs[0].Detail != "write fault" {
		t.Errorf("write fault instant = %+v", evs[0])
	}
	if evs[1].Phase != trace.PhaseChaosTransient || evs[1].Window != 128 ||
		evs[1].Detail != "read fault" {
		t.Errorf("read fault instant = %+v", evs[1])
	}
}

// TestResilientEmitsRetryInstants: a backend that fails transiently a
// fixed number of times must leave one retry instant per reissue, and
// an exhausted instant when the budget runs out.
func TestResilientEmitsRetryInstants(t *testing.T) {
	c := trace.NewCollector(64)
	base := NewMem()
	if _, err := base.WriteAt([]byte("z"), 32); err != nil {
		t.Fatal(err)
	}
	fl := &flaky{Mem: base, failLeft: 2, err: fmt.Errorf("blip: %w", ErrTransient)}
	r := NewResilient(fl, ResilientConfig{MaxRetries: 8, BaseBackoff: time.Microsecond})
	noSleep(r)
	r.SetTracer(c.Storage())

	if _, err := r.ReadAt(make([]byte, 1), 32); err != nil {
		t.Fatal(err)
	}

	var retries int
	for _, ev := range c.Events() {
		if ev.Phase == trace.PhaseRetry {
			retries++
			if ev.Window != 32 {
				t.Errorf("retry instant window = %d, want 32", ev.Window)
			}
			if ev.Detail == "" {
				t.Error("retry instant has no detail")
			}
		}
	}
	if retries != 2 {
		t.Fatalf("retry instants = %d, want 2", retries)
	}

	// Exhaust the budget: more failures than retries allowed.
	c2 := trace.NewCollector(64)
	fl2 := &flaky{Mem: NewMem(), failLeft: 1 << 30, err: fmt.Errorf("flap: %w", ErrTransient)}
	r2 := NewResilient(fl2, ResilientConfig{MaxRetries: 2, BaseBackoff: time.Microsecond})
	noSleep(r2)
	r2.SetTracer(c2.Storage())
	if _, err := r2.ReadAt(make([]byte, 1), 0); err == nil {
		t.Fatal("expected exhausted retries to fail")
	}
	var exhausted bool
	for _, ev := range c2.Events() {
		if ev.Phase == trace.PhaseRetryExhausted {
			exhausted = true
		}
	}
	if !exhausted {
		t.Fatal("no retry-exhausted instant recorded")
	}
}
