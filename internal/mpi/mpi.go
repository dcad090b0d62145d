// Package mpi provides the message-passing process model that the MPI-IO
// layer (internal/core) is built on: a fixed group of ranks, point-to-point
// messages with source/tag matching, and the collective operations
// two-phase I/O needs.
//
// This is the substitution for the NEC SX's MPI/SX runtime (see
// DESIGN.md).  Ranks run over a pluggable byte fabric
// (internal/transport): the default in-process loopback gives the seed's
// shared-memory world — goroutine ranks, one-function-call delivery —
// while the TCP transport runs the identical communication structure
// between separate OS processes (Run one rank per process with RunRank,
// or drive a socket fabric single-process with RunOver).  Messages are
// real byte-slice transfers with per-pair FIFO ordering, so the ol-list
// exchange of list-based collective I/O carries its true cost in copied
// bytes and message counts, both of which are instrumented.
package mpi

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/counter"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Reserved internal tag space for collectives; user tags must be below.
const collTagBase = 1 << 24

// Stats aggregates the communication volume of a world or a process.
// In a quiescent world (every sent message consumed by a Recv, a RecvRef
// or a DrainTag) the send and receive sides balance: Messages == Received
// and Bytes == BytesReceived.
type Stats struct {
	Messages      int64 // point-to-point messages sent
	Bytes         int64 // payload bytes sent
	Received      int64 // messages consumed (Recv, RecvRef and DrainTag)
	BytesReceived int64 // payload bytes consumed
	RecvWaitNs    int64 // total time spent blocked in Recv and RecvRef

	// Refs counts the references sent (SendRef, in-process only).  Each is
	// also one of Messages, with no payload bytes: what it references is
	// read in place.
	Refs int64

	// WireBytesSent / WireBytesRecv are the volumes that actually
	// crossed a network transport, frame headers included.  Zero for the
	// in-process loopback; in a distributed world they cover only the
	// local process's endpoint.
	WireBytesSent int64
	WireBytesRecv int64
}

type errAborted struct{}

func (errAborted) Error() string { return "mpi: world aborted" }

// world is the shared state of one run: the transport endpoints plus
// the accounting, barrier, and watchdog machinery.
type world struct {
	size int
	// wired marks a non-loopback fabric: barriers go over messages and
	// shutdown runs the flush/quiesce protocol.
	wired bool
	// dist marks one-rank-per-OS-process operation: only ranks[0] is
	// local, and the rank finalizes its endpoint.
	dist bool
	// eps holds the endpoints by rank; in dist mode only the local
	// rank's entry is non-nil.
	eps []transport.Transport
	// ranks lists the locally running ranks (blocked index → rank).
	ranks []int

	barrierMu  sync.Mutex
	barrierGen int
	barrierCnt int
	barrierC   *sync.Cond

	// traceC, when set, supplies per-rank tracers: Recv and Barrier
	// record wait spans, sends record instants, and the stall watchdog
	// includes each rank's last span begun in its diagnostic.
	traceC *trace.Collector

	// onStall, when set, fires with the diagnostic before a watchdog
	// abort (RunOptions.OnStall).
	onStall func(string)

	// aborted is set once abort has begun: a rank whose endpoint fails
	// after that dies silently, its failure being the teardown's.
	aborted atomic.Bool

	// Stall-watchdog state (RunOptions.StallTimeout): per-local-rank
	// wait states and a progress counter bumped on every delivery,
	// receive, and barrier passage.  Only maintained when watch is set.
	watch    bool
	blocked  []atomic.Uint64
	progress atomic.Int64

	abortOnce sync.Once
}

func newWorld(eps []transport.Transport, wired bool, traceC *trace.Collector) *world {
	n := len(eps)
	w := &world{
		size: n, wired: wired, eps: eps,
		ranks:  make([]int, n),
		traceC: traceC,
	}
	for i := range w.ranks {
		w.ranks[i] = i
	}
	w.barrierC = sync.NewCond(&w.barrierMu)
	return w
}

func (w *world) abort() {
	w.abortOnce.Do(func() {
		// Quiesce before closing so the teardown's own link drops don't
		// overwrite the first failure; ranks blocked in Recv observe
		// ErrClosed, or a link the teardown cut, and die silently as
		// errAborted.
		w.aborted.Store(true)
		for _, ep := range w.eps {
			if ep != nil {
				ep.Quiesce()
			}
		}
		for _, ep := range w.eps {
			if ep != nil {
				ep.Close()
			}
		}
		w.barrierMu.Lock()
		w.barrierGen = -1 << 30
		w.barrierMu.Unlock()
		w.barrierC.Broadcast()
	})
}

// Proc is one rank's handle on the world.  A Proc is owned by a single
// goroutine and must not be shared.  Its counters are the only store of
// its traffic: a world's Stats is their sum.
type Proc struct {
	rank int
	widx int // index into w.blocked / w.ranks
	w    *world
	ep   transport.Transport
	tr   *trace.Tracer

	// st counts the traffic, all but the wire volumes, which the endpoint
	// keeps.
	st Stats
}

// Rank reports this process's rank in [0, Size()).
func (p *Proc) Rank() int { return p.rank }

// Size reports the number of processes in the world.
func (p *Proc) Size() int { return p.w.size }

// SentStats reports this process's cumulative communication volume
// (both sides; the name predates the receive-side counters).
func (p *Proc) SentStats() Stats {
	st, ws := p.st, p.ep.Stats()
	st.WireBytesSent, st.WireBytesRecv = ws.BytesSent, ws.BytesRecv
	return st
}

// Wired reports whether the world's ranks exchange over a wire, where
// every payload is bytes and no reference can travel (SendRef), rather
// than in-process.
func (p *Proc) Wired() bool { return p.w.wired }

// RunOptions configure a world beyond its size.
type RunOptions struct {
	// StallTimeout, when positive, arms a watchdog that aborts the world
	// once every rank has been blocked (in Recv or Barrier, or exited)
	// with no message or barrier progress for the whole duration, and
	// makes Run return ErrStalled with a per-rank diagnostic — which
	// ranks are blocked, and on which Recv source/tag — instead of
	// hanging forever.  Over a network transport the timeout also
	// becomes the endpoint's write and handshake deadline, and bytes
	// crossing the wire count as progress so a slow large transfer is
	// not mistaken for a stall.
	StallTimeout time.Duration
	// Trace, when non-nil, attaches each rank's tracer: Recv and
	// Barrier record wait spans, Send records message instants, and
	// ErrStalled diagnostics include each rank's last span begun.
	Trace *trace.Collector
	// OnStall, when non-nil, is invoked with the watchdog's stall
	// diagnostic just before the world is aborted — the hook the
	// flight recorder uses to dump every rank's in-flight span while
	// the evidence is still warm.
	OnStall func(diagnostic string)
}

// ErrStalled is wrapped by the error Run returns when the stall watchdog
// aborts a deadlocked world.
var ErrStalled = errors.New("mpi: world stalled")

// Run executes fn on n ranks and waits for all of them.  It returns the
// aggregate communication statistics and the first panic (as an error),
// if any; a panic in one rank aborts the whole world.
func Run(n int, fn func(p *Proc)) (Stats, error) {
	return RunWithOptions(n, RunOptions{}, fn)
}

// RunWithOptions is Run with a stall watchdog and future knobs.
func RunWithOptions(n int, opts RunOptions, fn func(p *Proc)) (Stats, error) {
	if n <= 0 {
		return Stats{}, fmt.Errorf("mpi: world size %d", n)
	}
	return newWorld(transport.NewLoopback(n), false, opts.Trace).run(opts, fn)
}

// RunOver executes fn on len(eps) ranks within this process, one
// goroutine per endpoint.  With transport.NewLoopback endpoints it is
// Run; with transport.NewLocalTCPWorld endpoints the same world runs
// over real sockets — the transport-matrix tests and benchmarks drive
// both fabrics through this seam.
func RunOver(eps []transport.Transport, opts RunOptions, fn func(p *Proc)) (Stats, error) {
	if len(eps) == 0 {
		return Stats{}, errors.New("mpi: empty endpoint set")
	}
	_, loop := eps[0].(*transport.Loopback)
	w := newWorld(eps, !loop, opts.Trace)
	if w.wired && opts.StallTimeout > 0 {
		for _, ep := range eps {
			setTransportDeadline(ep, opts.StallTimeout)
		}
	}
	return w.run(opts, fn)
}

// RunRank executes fn as one rank of a distributed world: ep is this
// process's endpoint of a multi-process fabric (typically
// transport.NewTCP, launched by transport.Launch).  RunRank dials the
// fabric, runs fn, and finalizes the endpoint with the shutdown
// protocol (flush → quiesce → finalize barrier → flush → close) so
// every peer's in-flight bytes land before the links drop.
func RunRank(ep transport.Transport, opts RunOptions, fn func(p *Proc)) (Stats, error) {
	rank, size := ep.Rank(), ep.Size()
	if size <= 0 || rank < 0 || rank >= size {
		return Stats{}, fmt.Errorf("mpi: rank %d of world size %d", rank, size)
	}
	eps := make([]transport.Transport, size)
	eps[rank] = ep
	w := &world{
		size: size, wired: true, dist: true, eps: eps,
		ranks:  []int{rank},
		traceC: opts.Trace,
	}
	w.barrierC = sync.NewCond(&w.barrierMu)
	if opts.StallTimeout > 0 {
		setTransportDeadline(ep, opts.StallTimeout)
	}
	return w.run(opts, fn)
}

// setTransportDeadline wires the watchdog timeout into endpoints that
// take a write/handshake deadline (the TCP transport).
func setTransportDeadline(ep transport.Transport, d time.Duration) {
	if t, ok := ep.(interface{ SetDeadline(time.Duration) }); ok {
		t.SetDeadline(d)
	}
}

// run starts one goroutine per local rank, supervises them, and tears
// the fabric down.  It returns the sum of the local ranks' SentStats.
func (w *world) run(opts RunOptions, fn func(p *Proc)) (Stats, error) {
	var (
		wg     sync.WaitGroup
		errMu  sync.Mutex
		runErr error
		procs  = make([]*Proc, len(w.ranks))
	)
	setErr := func(err error) {
		errMu.Lock()
		if runErr == nil {
			runErr = err
		}
		errMu.Unlock()
	}
	w.onStall = opts.OnStall
	var watchStop, watchDone chan struct{}
	if opts.StallTimeout > 0 {
		w.watch = true
		w.blocked = make([]atomic.Uint64, len(w.ranks))
		watchStop, watchDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(watchDone)
			w.watchdog(opts.StallTimeout, watchStop, setErr)
		}()
	}
	for i, r := range w.ranks {
		wg.Add(1)
		go func(idx, rank int) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					if _, ok := e.(errAborted); !ok {
						setErr(fmt.Errorf("mpi: rank %d panicked: %v", rank, e))
					}
					w.abort()
				}
			}()
			if w.watch {
				// A rank that returned can never unblock a peer; the
				// watchdog counts it as permanently waiting.
				defer w.blocked[idx].Store(blockExited)
			}
			p := &Proc{rank: rank, widx: idx, w: w, ep: w.eps[rank], tr: opts.Trace.Tracer(rank)}
			procs[idx] = p
			if w.wired {
				if err := p.ep.Listen(); err != nil {
					panic(err)
				}
				if err := p.ep.Dial(); err != nil {
					panic(err)
				}
			}
			fn(p)
			if w.dist {
				p.finalizeWired()
			}
		}(i, r)
	}
	wg.Wait()
	if w.watch {
		close(watchStop)
		<-watchDone // runErr must not be written after we return it
	}
	if w.wired {
		// Idempotent teardown: a clean run still has live reader/writer
		// goroutines and sockets to release (abort already did this).
		for _, ep := range w.eps {
			if ep != nil {
				ep.Quiesce()
			}
		}
	}
	var st Stats
	for _, p := range procs {
		counter.Add(&st, p.SentStats())
	}
	if w.wired {
		for _, ep := range w.eps {
			if ep != nil {
				ep.Close()
			}
		}
	}
	return st, runErr
}

// finalizeWired runs the distributed shutdown protocol after fn returns
// cleanly: push queued frames, stop treating link drops as failures,
// rendezvous with every peer one last time so their in-flight traffic
// has landed, push the barrier's own release, then let run close the
// endpoint.  Flush errors are ignored — if a link is truly dead the
// finalize barrier reports it (or the watchdog does).  The barrier waits
// as Barrier does, in the watchdog's sight: a peer that never arrives is
// a stall.
func (p *Proc) finalizeWired() {
	p.ep.Flush()
	p.ep.Quiesce()
	p.inBarrier(true)
	p.msgBarrier(tagFinalize)
	p.inBarrier(false)
	p.ep.Flush()
}

// Per-rank wait states for the watchdog, packed into one uint64:
// kind<<62 | (src+2)<<32 | (tag+2).  Wildcards (-1) encode as 1.
const (
	blockNone    uint64 = 0
	blockRecv    uint64 = 1 << 62
	blockBarrier uint64 = 2 << 62
	blockExited  uint64 = 3 << 62
)

func blockState(kind uint64, src, tag int) uint64 {
	return kind | uint64(src+2)<<32 | uint64(uint32(tag+2))
}

// wireProgress totals the bytes the local endpoints have moved over
// their links; the watchdog counts it as progress so a large frame
// streaming slowly through a socket is not mistaken for a stall.
func (w *world) wireProgress() int64 {
	if !w.wired {
		return 0
	}
	var total int64
	for _, ep := range w.eps {
		if ep != nil {
			s := ep.Stats()
			total += s.BytesSent + s.BytesRecv
		}
	}
	return total
}

// watchdog polls the world's wait states and aborts it when every
// local rank stays blocked with zero progress for a full timeout
// window.
func (w *world) watchdog(timeout time.Duration, stop <-chan struct{}, fail func(error)) {
	poll := timeout / 4
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	tick := time.NewTicker(poll)
	defer tick.Stop()
	last := int64(-1)
	var stalledFor time.Duration
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		prog := w.progress.Load() + w.wireProgress()
		all := true
		for i := range w.blocked {
			if w.blocked[i].Load() == blockNone {
				all = false
				break
			}
		}
		if !all || prog != last {
			last = prog
			stalledFor = 0
			continue
		}
		if stalledFor += poll; stalledFor < timeout {
			continue
		}
		diag := w.stallDiagnostic()
		if w.onStall != nil {
			w.onStall(diag.Error())
		}
		fail(diag)
		w.abort()
		return
	}
}

// stallDiagnostic formats where every local rank is stuck: the packed
// wait state, plus (when tracing) the last span each rank began — which
// collective phase and file window the rank was inside when it stopped
// making progress.
func (w *world) stallDiagnostic() error {
	var b strings.Builder
	for i := range w.blocked {
		if i > 0 {
			b.WriteString("; ")
		}
		r := w.ranks[i]
		v := w.blocked[i].Load()
		src := int(v>>32&0x3fffffff) - 2
		tag := int(uint32(v)) - 2
		fmt.Fprintf(&b, "rank %d ", r)
		switch v & (3 << 62) {
		case blockRecv:
			b.WriteString("blocked in Recv(src=")
			if src == AnySource {
				b.WriteString("any")
			} else {
				fmt.Fprintf(&b, "%d", src)
			}
			if tag == AnyTag {
				b.WriteString(", tag=any)")
			} else {
				fmt.Fprintf(&b, ", tag=%d)", tag)
			}
		case blockBarrier:
			b.WriteString("blocked in Barrier")
		case blockExited:
			b.WriteString("exited")
		default:
			b.WriteString("running")
		}
		if ev, ok := w.traceC.Tracer(r).Current(); ok {
			fmt.Fprintf(&b, " [last span: %s", ev.Phase)
			if ev.Window != trace.NoWindow {
				fmt.Fprintf(&b, " @%d", ev.Window)
			}
			if ev.Dur < 0 {
				b.WriteString(", unfinished")
			}
			b.WriteString("]")
		}
	}
	return fmt.Errorf("%w: no progress for the stall timeout: %s", ErrStalled, b.String())
}

// transportFail translates an endpoint error into the rank's fate: a
// plain closure, or any failure once the world is aborting, means the
// world aborted (die silently); anything else is a transport failure
// that aborts the world and surfaces as this rank's error.
func (p *Proc) transportFail(err error) {
	if errors.Is(err, transport.ErrClosed) || p.w.aborted.Load() {
		panic(errAborted{})
	}
	p.w.abort()
	panic(err)
}

// Send delivers a copy of data to dst with the given tag.  Send is
// buffered: it never blocks on the receiver.
func (p *Proc) Send(dst, tag int, data []byte) {
	p.sending(dst, int64(len(data)))
	if err := p.ep.Send(dst, tag, data); err != nil {
		p.transportFail(err)
	}
}

// SendNoCopy delivers data without copying, transferring ownership of
// the payload to the transport (and onward to the receiver, who may
// recycle it into a buffer pool): the caller must not touch data — or
// any alias of it — afterwards.  Used for large one-shot payloads.
func (p *Proc) SendNoCopy(dst, tag int, data []byte) {
	p.sending(dst, int64(len(data)))
	if err := p.ep.SendNoCopy(dst, tag, data); err != nil {
		p.transportFail(err)
	}
}

// SendRef delivers ref, a value of this process, to dst, which takes it
// with RecvRef and reads what it references in place: nothing is copied.
// Only an in-process world carries a reference; on a wired one (Wired)
// the endpoint refuses it and the world aborts, as on any transport
// failure.  A reference is one message of no payload bytes, and counts in
// Stats.Refs.
func (p *Proc) SendRef(dst, tag int, ref any) {
	p.sending(dst, 0)
	p.st.Refs++
	if err := p.ep.SendRef(dst, tag, ref); err != nil {
		p.transportFail(err)
	}
}

// sending accounts one message of n payload bytes to dst.
func (p *Proc) sending(dst int, n int64) {
	if dst < 0 || dst >= p.w.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	p.st.Messages++
	p.st.Bytes += n
	if p.w.watch {
		p.w.progress.Add(1)
	}
	p.tr.Instant(trace.PhaseMPISend, trace.NoWindow, n, "")
}

// Recv blocks until a message matching (src, tag) arrives and returns its
// payload and envelope.  src may be AnySource and tag may be AnyTag.
// Matching messages from the same source with the same tag are received
// in the order they were sent.  The payload is the caller's.
func (p *Proc) Recv(src, tag int) (data []byte, fromSrc, fromTag int) {
	m := p.recv(src, tag)
	return m.Data, m.Src, m.Tag
}

// RecvRef is Recv for a message sent with SendRef: it returns the
// sender's reference itself, whose target stays the sender's memory.
func (p *Proc) RecvRef(src, tag int) any {
	return p.recv(src, tag).Ref
}

func (p *Proc) recv(src, tag int) transport.Message {
	sp := p.tr.Time(trace.PhaseMPIRecv, trace.NoWindow, 0)
	if p.w.watch {
		p.w.blocked[p.widx].Store(blockState(blockRecv, src, tag))
	}
	m, err := p.ep.Recv(src, tag)
	if err != nil {
		p.transportFail(err)
	}
	if p.w.watch {
		p.w.blocked[p.widx].Store(blockNone)
		p.w.progress.Add(1)
	}
	n := int64(len(m.Data))
	ns := sp.EndBytes(n)
	p.st.RecvWaitNs += ns
	p.received(1, n)
	return m
}

// received accounts msgs consumed messages of the given payload bytes.
func (p *Proc) received(msgs, bytes int64) {
	p.st.Received += msgs
	p.st.BytesReceived += bytes
}

// DrainTag removes every queued message with the given tag (from any
// source) from this rank's inbox, returning the number of messages
// discarded.  Collective error recovery uses it to clear the in-flight
// traffic of an abandoned collective so the next one starts with clean
// inboxes.  Drained messages count as received so the world's
// send/receive accounting still balances after error recovery.  put, when
// not nil, receives each discarded payload, so that pooled ones go back.
func (p *Proc) DrainTag(tag int, put func([]byte)) int {
	dropped, bytes := p.ep.DrainTag(tag, put)
	p.received(int64(dropped), bytes)
	return dropped
}

// Barrier blocks until all ranks have entered it.
func (p *Proc) Barrier() {
	w := p.w
	sp := p.tr.Begin(trace.PhaseMPIBarrier, trace.NoWindow, 0)
	defer sp.End()
	p.inBarrier(true)
	defer p.inBarrier(false)
	if w.wired {
		p.msgBarrier(tagBarrier)
		return
	}
	w.barrierMu.Lock()
	gen := w.barrierGen
	if gen < 0 {
		w.barrierMu.Unlock()
		panic(errAborted{})
	}
	w.barrierCnt++
	if w.barrierCnt == w.size {
		w.barrierCnt = 0
		w.barrierGen++
		w.barrierMu.Unlock()
		w.barrierC.Broadcast()
		return
	}
	for w.barrierGen == gen {
		w.barrierC.Wait()
	}
	aborted := w.barrierGen < 0
	w.barrierMu.Unlock()
	if aborted {
		panic(errAborted{})
	}
}

// inBarrier records for the stall watchdog that the rank waits in a
// barrier (in) or has passed it, a passage being progress.
func (p *Proc) inBarrier(in bool) {
	w := p.w
	switch {
	case !w.watch:
	case in:
		w.blocked[p.widx].Store(blockState(blockBarrier, -2, -2))
	default:
		w.blocked[p.widx].Store(blockNone)
		w.progress.Add(1)
	}
}

// msgBarrier is the dissemination barrier a wired world uses (Thakur,
// Rabenseifner and Gropp): in round k = 1, 2, 4, ... < P every rank sends
// to rank+k and receives from rank-k (mod P), so ⌈log₂P⌉ rounds — one at
// P = 2 — and no rank relays for another.  Once a rank has passed round k
// it has heard, directly or through the rounds before, from the 2k-1
// ranks below it, so after the last round from every rank.  A rank receives
// from each source at most once per barrier, the rounds' sources being
// distinct, so per-pair FIFO makes consecutive barriers safe without
// generation numbers.  It speaks the endpoint directly — no stat
// counting, no nested Recv wait state — so a barrier looks identical to
// the in-process one from the outside.
func (p *Proc) msgBarrier(tag int) {
	n := p.w.size
	for k := 1; k < n; k <<= 1 {
		if err := p.ep.SendNoCopy((p.rank+k)%n, tag, nil); err != nil {
			p.transportFail(err)
		}
		if _, err := p.ep.Recv((p.rank-k+n)%n, tag); err != nil {
			p.transportFail(err)
		}
	}
}
