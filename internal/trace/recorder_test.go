package trace_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ioserver"
	"repro/internal/storage"
	"repro/internal/trace"
)

// TestRecorderDump: the flight recorder writes a dump containing the
// process, the reason, the counters it was given — a server's Stats —
// and the ring's recent spans, including a span still in flight at dump
// time.
func TestRecorderDump(t *testing.T) {
	srv, err := ioserver.New(ioserver.Config{
		Backend:  storage.NewMem(),
		Geom:     storage.StripeGeom{Unit: 64, Count: 1},
		Recovery: ioserver.RecoveryInfo{AppliedEpochs: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "flight.txt")
	col := trace.NewCollector(trace.RecorderBufSize)
	rec := trace.NewRecorder(path, "srv1", col, func() string { return srv.Stats().String() })
	tr := col.Tracer(0)
	tr.Begin(trace.PhaseCollWrite, 0, 128).End()
	tr.Begin(trace.PhaseStorageRead, 4096, 64) // left in flight
	if err := rec.Dump("test-fault"); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"flight recorder: srv1", "reason: test-fault", "EpochsRecovered:3",
		string(trace.PhaseCollWrite), string(trace.PhaseStorageRead)} {
		if !strings.Contains(string(b), want) {
			t.Errorf("dump missing %q:\n%s", want, b)
		}
	}

	// A rank's recorder has no counters, and its dump no counter line.
	rec = trace.NewRecorder(path, "rank0", col, nil)
	if err := rec.Dump("clean exit"); err != nil {
		t.Fatal(err)
	}
	if b, err = os.ReadFile(path); err != nil || strings.Contains(string(b), "counters:") {
		t.Errorf("rank dump (err %v) carries a counter line:\n%s", err, b)
	}

	// A disabled recorder (empty path) is nil and fully no-op.
	off := trace.NewRecorder("", "x", nil, nil)
	off.Start(0)
	off.Stop()
	if err := off.Dump("x"); err != nil {
		t.Fatal(err)
	}
}

// TestRecorderStartDumps: Start leaves a dump on disk before it returns,
// so a process SIGKILLed before the persist loop's first tick still
// leaves its dying breath behind.
func TestRecorderStartDumps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.txt")
	rec := trace.NewRecorder(path, "srv0", trace.NewCollector(trace.RecorderBufSize), nil)
	rec.Start(time.Hour)
	defer rec.Stop()
	b, err := os.ReadFile(path)
	if err != nil || !strings.Contains(string(b), "flight recorder: srv0") {
		t.Fatalf("no dump after Start (err %v):\n%s", err, b)
	}
}
