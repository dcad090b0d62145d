// Package trace is the per-rank observability layer of the repository:
// structured spans and instant events recorded into fixed-size per-rank
// ring buffers, log-bucketed latency histograms mergeable across ranks,
// and a world-level Collector that exports a Chrome trace-event JSON
// (loadable in chrome://tracing or Perfetto) plus a per-rank imbalance
// summary, and a flight recorder (Recorder) that keeps a process's last
// spans on disk as a post-mortem.
//
// The paper's argument is a cost breakdown — where list-based I/O loses
// time (ol-list build, exchange, traversal) versus where listless I/O
// spends it (pack/copy, storage) — and flat end-of-run counters cannot
// attribute that cost to individual windows, phases, or ranks.  This
// package provides the attribution substrate: internal/core wraps its
// collective phases and sieving windows in spans, internal/mpi wraps
// its blocking waits, and internal/storage marks backend operations,
// injected faults, and retries.
//
// Cost model: a disabled tracer is a nil pointer, so a Begin site costs
// one nil check and nothing else.  A site whose duration the caller
// accounts itself (core's Stats phase times, mpi's RecvWaitNs) opens its
// span with Time instead: that span reads the clock once at each end
// whether or not a tracer is attached, and End hands the duration back,
// so the site never reads a second clock of its own.  An enabled span
// costs those two monotonic clock reads, one mutex critical section at
// each end — End's also folds the duration into the phase's HistData —
// and one ring-slot store; no allocation.  Memory is bounded by the ring
// (BufSize events per rank); when the ring wraps, the oldest events are
// dropped and counted, and the per-phase aggregates keep the whole run.
package trace

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Phase names one kind of span or instant event.  The taxonomy is
// central so that exports, summaries, and forensics agree on names
// (see DESIGN.md §6 for the full catalogue).
type Phase string

// Span phases.
const (
	// Whole-operation spans (one per access per rank).
	PhaseCollWrite Phase = "coll.write"
	PhaseCollRead  Phase = "coll.read"
	PhaseIndWrite  Phase = "ind.write"
	PhaseIndRead   Phase = "ind.read"

	// Collective sub-phases.
	PhaseCollPlan     Phase = "coll.plan"          // allgather + domain partition
	PhaseAPSetup      Phase = "coll.ap-setup"      // AP phase 1 (ol-list build+send / view exchange)
	PhaseIOPSetup     Phase = "coll.iop-setup"     // IOP engine setup (list receive+decode)
	PhaseWindow       Phase = "coll.window"        // one IOP window's main-goroutine processing
	PhasePipelineWait Phase = "coll.pipeline-wait" // main goroutine waiting on a background pre-read
	PhaseExchange     Phase = "coll.exchange"      // one AP↔IOP data chunk send/recv
	PhaseCopy         Phase = "coll.copy"          // pack/unpack and window merge copies

	// Storage sub-phases of the window loops and data sieving.  The
	// backend calls of a window — collective (background-I/O track) or
	// independent sieving (main track, inside its sieve span) — are the
	// first two; StorageNs is their sum.
	PhasePreRead    Phase = "storage.pre-read"   // window read or pre-read
	PhaseWriteBack  Phase = "storage.write-back" // window write-back
	PhaseSieveRead  Phase = "sieve.read"         // independent sieving window: read + copy out
	PhaseSieveWrite Phase = "sieve.write"        // independent sieving window: locked read-modify-write

	// Blocking MPI waits.
	PhaseMPIRecv    Phase = "mpi.recv"
	PhaseMPIBarrier Phase = "mpi.barrier"

	// Wire-level transport activity (the TCP transport's per-link
	// reader and writer goroutines; the in-process loopback emits none).
	PhaseWireSend Phase = "wire.send" // one coalesced flush of queued frames
	PhaseWireRecv Phase = "wire.recv" // one frame's payload transfer

	// Backend operations (the storage.Traced wrapper).
	PhaseStorageRead     Phase = "storage.read"
	PhaseStorageWrite    Phase = "storage.write"
	PhaseStorageSync     Phase = "storage.sync"
	PhaseStorageTruncate Phase = "storage.truncate"

	// Registered-view operations against a ViewBackend (the remote
	// I/O-server tier): one span per view-addressed data transfer.
	PhaseStorageViewRead  Phase = "storage.view-read"
	PhaseStorageViewWrite Phase = "storage.view-write"

	// I/O-server request handling (the ioserver.Server side): one span
	// per request that moves data.
	PhaseServerRead      Phase = "server.read"       // raw offset-list read
	PhaseServerWrite     Phase = "server.write"      // raw offset-list write
	PhaseServerViewRead  Phase = "server.view-read"  // server-side view evaluation, read
	PhaseServerViewWrite Phase = "server.view-write" // server-side view evaluation, write
	// One sieve window of the stripe (window = local offset, bytes = the
	// request bytes it carries), inside the request that moved it.
	PhaseServerSieve Phase = "server.sieve"

	// Epoch commit protocol (crash-consistent collective writes).
	PhaseEpochSeal    Phase = "epoch.seal"    // per-rank seal round before commit
	PhaseEpochCommit  Phase = "epoch.commit"  // rank 0's commit broadcast to the servers
	PhaseServerStage  Phase = "server.stage"  // one staged (journaled) write request
	PhaseServerCommit Phase = "server.commit" // one server applying a committed epoch
	// The commit record's append and journal sync, inside server.commit:
	// the wait for the durability point, apart from the apply.
	PhaseServerJournalSync Phase = "server.journal-sync"
	// One server syncing its stripe and resetting its journal (bytes = the
	// journal bytes retired).
	PhaseServerCheckpoint Phase = "server.checkpoint"
)

// Instant phases.
const (
	PhaseMPISend        Phase = "mpi.send"      // message posted
	PhaseFault          Phase = "coll.fault"    // agreed collective error
	PhaseRetry          Phase = "storage.retry" // Resilient reissued an op
	PhaseRetryExhausted Phase = "storage.retry-exhausted"
	PhaseChaosTransient Phase = "chaos.transient"
	PhaseChaosPermanent Phase = "chaos.permanent"
	PhaseChaosShortRead Phase = "chaos.short-read"
	PhaseChaosTornWrite Phase = "chaos.torn-write"
	PhaseChaosSpike     Phase = "chaos.spike"

	// I/O-server view-cache events.
	PhaseServerViewReg   Phase = "server.view-register" // view decoded and cached
	PhaseServerViewHit   Phase = "server.view-hit"      // registration served from the LRU cache
	PhaseServerViewStale Phase = "server.view-stale"    // request named an evicted handle

	// Epoch commit protocol events.
	PhaseEpochRetry  Phase = "epoch.retry"   // seal/commit round retried after a server bounce
	PhaseChaosViewOp Phase = "chaos.view-op" // injected fault on a registered-view operation

	// Wire-level fault injection (transport.ChaosConn).
	PhaseWireChaosSpike     Phase = "wire.chaos-spike"     // injected latency
	PhaseWireChaosDrop      Phase = "wire.chaos-drop"      // frame silently dropped
	PhaseWireChaosDup       Phase = "wire.chaos-duplicate" // frame sent twice
	PhaseWireChaosCorrupt   Phase = "wire.chaos-corrupt"   // byte flipped in flight
	PhaseWireChaosReset     Phase = "wire.chaos-reset"     // mid-message connection reset
	PhaseWireChaosPartition Phase = "wire.chaos-partition" // one-directional stall
)

// Kind distinguishes completed spans from instant events.
type Kind uint8

// The two event kinds.
const (
	KindSpan Kind = iota
	KindInstant
)

// Tracks separate a rank's concurrent activities so exported spans nest
// properly: the pipelined window loop's background storage I/O overlaps
// the main goroutine's exchange spans by design.
const (
	TrackMain = 0 // the rank's main goroutine
	TrackIO   = 1 // the pipelined loop's background storage I/O
	TrackWire = 2 // the network transport's reader/writer goroutines
)

// RankStorage is the pseudo-rank of the shared storage backend's track
// (the backend is world-level state, not owned by any rank).
const RankStorage = -1

// NoWindow marks spans not tied to a file window.
const NoWindow = int64(-1)

// Event is one recorded span or instant.
type Event struct {
	Rank  int
	Track int
	Kind  Kind
	Phase Phase
	// Window is the absolute file offset of the window or operation the
	// event covers, or NoWindow.
	Window int64
	// Bytes is the payload volume of the event (0 when not applicable).
	Bytes int64
	// Start is nanoseconds since the collector's epoch; Dur is the span
	// duration (0 for instants).
	Start, Dur int64
	// Detail carries free-form context for instants (fault messages).
	Detail string
}

// String renders one event for forensics output.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[+%v] %s", time.Duration(e.Start).Round(time.Microsecond), e.Phase)
	if e.Window != NoWindow {
		fmt.Fprintf(&b, " @%d", e.Window)
	}
	if e.Bytes > 0 {
		fmt.Fprintf(&b, " %dB", e.Bytes)
	}
	if e.Kind == KindSpan {
		fmt.Fprintf(&b, " dur=%v", time.Duration(e.Dur).Round(time.Nanosecond))
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " (%s)", e.Detail)
	}
	return b.String()
}

// Tracer records one rank's events.  All methods are safe on a nil
// receiver (the disabled state) and safe for concurrent use — the
// pipelined window loop records background I/O spans from its prep and
// write-back goroutines.
type Tracer struct {
	rank  int
	clock func() int64

	mu     sync.Mutex
	buf    []Event
	n      uint64 // events ever recorded
	cur    Event  // last span begun (possibly unfinished)
	curSet bool
	phases map[Phase]*HistData // every span duration ever ended, by phase
}

func newTracer(rank, bufSize int, clock func() int64) *Tracer {
	return &Tracer{
		rank:   rank,
		clock:  clock,
		buf:    make([]Event, bufSize),
		phases: make(map[Phase]*HistData),
	}
}

// Enabled reports whether the tracer records anything.  Use it to guard
// work done only to build event details.
func (t *Tracer) Enabled() bool { return t != nil }

// Rank reports the rank the tracer records for.
func (t *Tracer) Rank() int {
	if t == nil {
		return -1
	}
	return t.rank
}

// Span is one in-flight span.  The zero Span (Begin on a disabled
// tracer) is inert and has read no clock.
type Span struct {
	t      *Tracer
	phase  Phase
	track  int
	window int64
	bytes  int64
	start  int64
	timed  bool // started by Time/TimeIO on a disabled tracer: start is untracedNow
}

// untracedEpoch anchors the clock of timed spans that have no tracer.
var untracedEpoch = time.Now()

func untracedNow() int64 { return time.Since(untracedEpoch).Nanoseconds() }

// Begin starts a span on the rank's main track.  window is the absolute
// file offset the span covers (NoWindow when not applicable); bytes the
// payload volume (0 when unknown — see Span.EndBytes).
func (t *Tracer) Begin(ph Phase, window, bytes int64) Span {
	return t.begin(TrackMain, ph, window, bytes)
}

// BeginIO starts a span on the rank's background-I/O track, for storage
// operations the pipelined window loop runs concurrently with the main
// goroutine's exchange.
func (t *Tracer) BeginIO(ph Phase, window, bytes int64) Span {
	return t.begin(TrackIO, ph, window, bytes)
}

// Time is Begin for a span whose duration the caller accounts: End
// returns it, measured by the one clock read at each end, with or
// without a tracer.
func (t *Tracer) Time(ph Phase, window, bytes int64) Span {
	return t.time(TrackMain, ph, window, bytes)
}

// TimeIO is Time on the background-I/O track.
func (t *Tracer) TimeIO(ph Phase, window, bytes int64) Span {
	return t.time(TrackIO, ph, window, bytes)
}

func (t *Tracer) time(track int, ph Phase, window, bytes int64) Span {
	if t == nil {
		return Span{timed: true, start: untracedNow()}
	}
	return t.begin(track, ph, window, bytes)
}

// BeginWire starts a span on the rank's wire track, for the transport's
// reader/writer goroutines, which overlap the main goroutine by design.
func (t *Tracer) BeginWire(ph Phase, bytes int64) Span {
	return t.begin(TrackWire, ph, NoWindow, bytes)
}

func (t *Tracer) begin(track int, ph Phase, window, bytes int64) Span {
	if t == nil {
		return Span{}
	}
	start := t.clock()
	t.mu.Lock()
	t.cur = Event{Rank: t.rank, Track: track, Kind: KindSpan, Phase: ph,
		Window: window, Bytes: bytes, Start: start, Dur: -1}
	t.curSet = true
	t.mu.Unlock()
	return Span{t: t, phase: ph, track: track, window: window, bytes: bytes, start: start}
}

// End completes the span, recording it into the ring and folding its
// duration into the phase's aggregate.  It returns that duration in
// nanoseconds — the Dur of the recorded event — or 0 for a span that
// was never timed (Begin on a disabled tracer).
func (s Span) End() int64 { return s.EndBytes(s.bytes) }

// EndBytes is End with the payload volume learned during the span (a
// Recv's message size).
func (s Span) EndBytes(bytes int64) int64 {
	t := s.t
	if t == nil {
		if s.timed {
			return untracedNow() - s.start
		}
		return 0
	}
	dur := t.clock() - s.start
	t.mu.Lock()
	t.record(Event{Rank: t.rank, Track: s.track, Kind: KindSpan, Phase: s.phase,
		Window: s.window, Bytes: bytes, Start: s.start, Dur: dur})
	h := t.phases[s.phase]
	if h == nil {
		h = new(HistData)
		t.phases[s.phase] = h
	}
	h.Add(dur)
	if t.curSet && t.cur.Start == s.start && t.cur.Phase == s.phase && t.cur.Track == s.track {
		t.cur.Dur = dur // the in-flight marker is now finished
	}
	t.mu.Unlock()
	return dur
}

// Instant records a point event (a posted message, an injected fault, a
// retry).
func (t *Tracer) Instant(ph Phase, window, bytes int64, detail string) {
	if t == nil {
		return
	}
	ts := t.clock()
	t.mu.Lock()
	t.record(Event{Rank: t.rank, Track: TrackMain, Kind: KindInstant, Phase: ph,
		Window: window, Bytes: bytes, Start: ts, Detail: detail})
	t.mu.Unlock()
}

// record stores ev in the ring; the caller holds t.mu.
func (t *Tracer) record(ev Event) {
	t.buf[t.n%uint64(len(t.buf))] = ev
	t.n++
}

// Current returns the last span begun on this rank, finished or not —
// an unfinished one is exactly what a stalled rank is blocked inside.
func (t *Tracer) Current() (Event, bool) {
	if t == nil {
		return Event{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur, t.curSet
}

// Recent returns up to n of the most recently recorded events, oldest
// first.
func (t *Tracer) Recent(n int) []Event {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	have := t.n
	if have > uint64(len(t.buf)) {
		have = uint64(len(t.buf))
	}
	if have > uint64(n) {
		have = uint64(n)
	}
	out := make([]Event, have)
	for i := uint64(0); i < have; i++ {
		out[i] = t.buf[(t.n-have+i)%uint64(len(t.buf))]
	}
	return out
}

// Events returns every buffered event, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.Recent(len(t.buf))
}

// Dropped reports how many events the ring has overwritten.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n <= uint64(len(t.buf)) {
		return 0
	}
	return int64(t.n - uint64(len(t.buf)))
}

// Phases returns the per-phase aggregate of every span this rank ended:
// count, total and latency distribution.  Unlike the ring it never
// drops, so it describes the whole run.
func (t *Tracer) Phases() map[Phase]HistData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[Phase]HistData, len(t.phases))
	for ph, h := range t.phases {
		out[ph] = *h
	}
	return out
}
