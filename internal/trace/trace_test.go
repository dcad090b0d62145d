package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock returns a deterministic clock advancing step ns per call.
func fakeClock(step int64) func() int64 {
	var t int64
	return func() int64 { t += step; return t }
}

// testCollector builds a collector with a deterministic clock.
func testCollector(bufSize int, step int64) *Collector {
	c := NewCollector(bufSize)
	c.clock = fakeClock(step)
	return c
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	sp := tr.Begin(PhaseExchange, 0, 10)
	sp.End()
	tr.BeginIO(PhasePreRead, 0, 0).EndBytes(5)
	tr.Instant(PhaseFault, NoWindow, 0, "x")
	if evs := tr.Events(); evs != nil {
		t.Fatalf("nil tracer recorded %v", evs)
	}
	if _, ok := tr.Current(); ok {
		t.Fatal("nil tracer has a current span")
	}
	if tr.Dropped() != 0 || tr.Phases() != nil {
		t.Fatal("nil tracer has state")
	}

	var c *Collector
	if c.Tracer(3) != nil || c.Storage() != nil {
		t.Fatal("nil collector hands out tracers")
	}
	if c.Events() != nil || c.Summary() != "" || c.Forensics(4) != "" {
		t.Fatal("nil collector produces output")
	}
}

func TestSpanRecordingAndOrder(t *testing.T) {
	c := testCollector(16, 100)
	tr := c.Tracer(0)

	sp := tr.Begin(PhaseExchange, 4096, 64)
	sp.End()
	tr.Instant(PhaseMPISend, NoWindow, 32, "")
	sp = tr.BeginIO(PhasePreRead, 8192, 128)
	sp.End()

	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	e0 := evs[0]
	if e0.Phase != PhaseExchange || e0.Kind != KindSpan || e0.Window != 4096 ||
		e0.Bytes != 64 || e0.Dur != 100 || e0.Track != TrackMain || e0.Rank != 0 {
		t.Errorf("event 0 = %+v", e0)
	}
	if evs[1].Kind != KindInstant || evs[1].Phase != PhaseMPISend || evs[1].Dur != 0 {
		t.Errorf("event 1 = %+v", evs[1])
	}
	if evs[2].Track != TrackIO {
		t.Errorf("event 2 track = %d, want TrackIO", evs[2].Track)
	}
	if evs[0].Start >= evs[1].Start || evs[1].Start >= evs[2].Start {
		t.Errorf("events out of order: %+v", evs)
	}
}

func TestEndBytesOverridesBytes(t *testing.T) {
	c := testCollector(4, 1)
	tr := c.Tracer(1)
	tr.Begin(PhaseMPIRecv, NoWindow, 0).EndBytes(777)
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Bytes != 777 {
		t.Fatalf("events = %+v, want one with Bytes=777", evs)
	}
}

func TestRingWrapDropsOldest(t *testing.T) {
	c := testCollector(4, 1)
	tr := c.Tracer(0)
	for i := 0; i < 10; i++ {
		tr.Begin(PhaseCopy, int64(i), 0).End()
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("buffered = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.Window != want {
			t.Errorf("event %d window = %d, want %d", i, ev.Window, want)
		}
	}
	// Recent returns a suffix, oldest first.
	last2 := tr.Recent(2)
	if len(last2) != 2 || last2[0].Window != 8 || last2[1].Window != 9 {
		t.Fatalf("Recent(2) = %+v", last2)
	}
	// The per-phase aggregate survives the wrap.
	if agg := tr.Phases()[PhaseCopy]; agg.Count != 10 || agg.Sum != 10 || agg.Max != 1 {
		t.Fatalf("aggregate = %+v", agg)
	}
}

// TestTimedSpan: a timed span returns exactly the duration its ring
// event records; with no tracer it still measures, and only an untimed
// span on a nil tracer is free of clock reads.
func TestTimedSpan(t *testing.T) {
	c := testCollector(8, 7)
	tr := c.Tracer(0)
	durs := []int64{
		tr.Time(PhaseCopy, 0, 1).End(),
		tr.TimeIO(PhasePreRead, 0, 1).EndBytes(9),
		tr.Begin(PhaseExchange, 0, 1).End(),
	}
	evs := tr.Events()
	if len(evs) != len(durs) {
		t.Fatalf("recorded %d events, want %d", len(evs), len(durs))
	}
	for i, ev := range evs {
		if durs[i] != ev.Dur || ev.Dur != 7 {
			t.Errorf("span %d (%s) returned %d, ring recorded %d, clock step 7", i, ev.Phase, durs[i], ev.Dur)
		}
	}
	if evs[1].Track != TrackIO || evs[1].Bytes != 9 {
		t.Errorf("TimeIO span = %+v", evs[1])
	}

	var off *Tracer
	if sp := off.Begin(PhaseCopy, 0, 1); sp != (Span{}) || sp.End() != 0 {
		t.Errorf("untimed span on a nil tracer = %+v, want the zero Span", sp)
	}
	for _, sp := range []Span{off.Time(PhaseCopy, 0, 1), off.TimeIO(PhasePreRead, 0, 1)} {
		time.Sleep(time.Millisecond)
		if d := sp.End(); d < int64(time.Millisecond) {
			t.Errorf("timed span on a nil tracer measured %dns across a 1ms sleep", d)
		}
	}
}

func TestCurrentTracksInFlightSpan(t *testing.T) {
	c := testCollector(8, 1)
	tr := c.Tracer(2)
	if _, ok := tr.Current(); ok {
		t.Fatal("fresh tracer has a current span")
	}
	sp := tr.Begin(PhaseMPIRecv, NoWindow, 0)
	cur, ok := tr.Current()
	if !ok || cur.Phase != PhaseMPIRecv || cur.Dur >= 0 {
		t.Fatalf("in-flight current = %+v ok=%v", cur, ok)
	}
	sp.End()
	cur, ok = tr.Current()
	if !ok || cur.Dur < 0 {
		t.Fatalf("finished current = %+v ok=%v", cur, ok)
	}
}

// TestConcurrentRecording exercises the tracer from several goroutines
// on all three tracks (the pipelined window loop records background I/O
// spans, and the transport wire spans, concurrently with main-goroutine
// exchange spans); run under -race.  Spans are counted from the
// per-phase aggregates, which a wrapped ring does not lose; instants
// have no aggregate and are counted from the ring, sized to hold them.
func TestConcurrentRecording(t *testing.T) {
	c := NewCollector(2048)
	tr := c.Tracer(0)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch g % 3 {
				case 0:
					tr.TimeIO(PhasePreRead, int64(i), 1).End()
				case 1:
					tr.Begin(PhaseExchange, int64(i), 1).End()
					tr.Instant(PhaseMPISend, NoWindow, 1, "")
				case 2:
					tr.BeginWire(PhaseWireSend, 1).End()
				}
			}
		}(g)
	}
	wg.Wait()
	agg := tr.Phases()
	if agg[PhasePreRead].Count != 400 || agg[PhaseExchange].Count != 400 || agg[PhaseWireSend].Count != 400 {
		t.Fatalf("aggregates = %+v", agg)
	}
	if _, ok := agg[PhaseMPISend]; ok {
		t.Error("an instant phase has a span aggregate")
	}
	var sends int
	for _, ev := range tr.Events() {
		if ev.Kind == KindInstant && ev.Phase == PhaseMPISend {
			sends++
		}
	}
	if sends != 400 {
		t.Fatalf("ring holds %d send instants, want 400", sends)
	}
}

func TestForensicsFormat(t *testing.T) {
	c := testCollector(8, 1000)
	c.Tracer(0).Begin(PhaseWindow, 65536, 128).End()
	c.Tracer(1).Begin(PhaseMPIRecv, NoWindow, 0) // left in flight
	c.Storage().Instant(PhaseChaosTransient, 512, 0, "read fault")

	got := c.Forensics(4)
	for _, want := range []string{
		"rank 0:", "coll.window @65536 128B",
		"rank 1:", "in-flight: mpi.recv",
		"storage backend:", "chaos.transient", "(read fault)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("forensics missing %q:\n%s", want, got)
		}
	}
}

func TestSummaryImbalance(t *testing.T) {
	c := testCollector(8, 0) // manual durations via clock steps? use explicit spans
	// Use a controllable clock: rank 0 spends 3x rank 1's time in the
	// exchange phase.
	var now int64
	c.clock = func() int64 { return now }
	sp := c.Tracer(0).Begin(PhaseExchange, NoWindow, 0)
	now = 3000
	sp.End()
	sp = c.Tracer(1).Begin(PhaseExchange, NoWindow, 0)
	now = 4000
	sp.End()

	got := c.Summary()
	if !strings.Contains(got, "coll.exchange") {
		t.Fatalf("summary missing phase:\n%s", got)
	}
	if !strings.Contains(got, "rank 0 (75%)") {
		t.Errorf("summary missing imbalance share (want rank 0 at 75%%):\n%s", got)
	}
	if !strings.Contains(got, "2 ranks") {
		t.Errorf("summary missing rank count:\n%s", got)
	}
}

// TestSummaryGolden pins the -trace-summary table byte for byte: the
// string below was captured from the implementation that kept separate
// totals, counts and histograms per phase (PR 21), over a fixture with a
// wrapped ring, background-track spans, an instant, and a storage-track
// span (which the table leaves out).
func TestSummaryGolden(t *testing.T) {
	c := testCollector(8, 0)
	var now int64
	c.clock = func() int64 { return now }
	span := func(rank int, ph Phase, io bool, dur int64) {
		begin := c.Tracer(rank).Begin
		if io {
			begin = c.Tracer(rank).BeginIO
		}
		sp := begin(ph, NoWindow, 0)
		now += dur
		sp.End()
	}
	for i := 0; i < 12; i++ { // rank 0 wraps its 8-slot ring
		span(0, PhaseExchange, false, int64(1000*(i+1)))
	}
	span(1, PhaseExchange, false, 26_000)
	span(0, PhaseCopy, false, 500)
	span(1, PhaseCopy, false, 1500)
	span(2, PhaseCopy, false, 3_000_000)
	span(1, PhasePreRead, true, 40_000)
	span(2, PhaseWriteBack, true, 7)
	c.Tracer(2).Instant(PhaseMPISend, NoWindow, 16, "")
	span(RankStorage, PhaseStorageWrite, false, 123_456)

	const want = "trace summary: 3 ranks, 15 events buffered (5 dropped)\n" +
		"  phase                       total    count      mean       p50       p99   slowest rank (share)\n" +
		"  coll.copy                 3.002ms        3   1.001ms       1µs       2µs   rank 2 (100%)\n" +
		"  coll.exchange               104µs       13       8µs       8µs      16µs   rank 0 (75%)\n" +
		"  storage.pre-read             40µs        1      40µs      40µs      40µs   rank 1 (100%)\n" +
		"  storage.write-back             0s        1        0s        0s        0s   rank 2 (100%)\n"
	if got := c.Summary(); got != want {
		t.Errorf("summary changed:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
