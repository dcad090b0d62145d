package ioserver

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datatype"
	"repro/internal/fotf"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Config describes one I/O server: the backend holding its stripe's
// bytes, and its place in the global layout.
type Config struct {
	// Backend stores this server's stripe (local offsets).
	Backend storage.Backend
	// Geom is the global stripe layout; Index is this server's stripe.
	// Every server of a deployment must be configured with the same
	// Geom, and the clients with the matching layout — the shared
	// StripeGeom arithmetic is what keeps them agreeing on ownership.
	Geom  storage.StripeGeom
	Index int
	// MaxFrame bounds request and response payloads (<= 0 selects
	// transport.DefaultMaxFrame).  Header lengths are validated against
	// it before any allocation.
	MaxFrame int
	// ViewCache is the per-connection registered-view LRU capacity
	// (<= 0 selects DefaultViewCache).  Evicted handles answer
	// subsequent view requests with a stale-handle error, which clients
	// repair by re-registering.
	ViewCache int
	// Tracer, when non-nil, records request spans and view-cache
	// events.
	Tracer *trace.Tracer
	// Journal is the intent journal backing the epoch commit protocol.
	// File-backed deployments recover one with RecoverJournal (replaying
	// committed epochs into Backend first) and pass it here; when nil,
	// New builds a volatile in-memory journal, which still gives staged
	// writes commit atomicity against everything but a server crash.
	Journal *Journal
	// Recovery, when the journal came from RecoverJournal, carries what
	// recovery found; its counts fold into Stats so op=stats and the
	// metrics plane reflect crash-consistency activity across restarts.
	Recovery RecoveryInfo
	// Metrics, when non-nil, registers the server's request counters and
	// per-op latency histograms (served by the process's /metrics
	// endpoint and the launcher's scrape, cmd/noncontig).
	Metrics *obs.Registry
}

// Server serves one stripe of a file to any number of client
// connections.
type Server struct {
	cfg         Config
	journal     *Journal
	incarnation int64 // instance id, fresh per process start
	stats       struct {
		requests, rawReads, rawWrites    atomic.Int64
		viewReads, viewWrites            atomic.Int64
		viewRegs, viewHits, staleHandles atomic.Int64
		bytesRead, bytesWritten          atomic.Int64
		stagedWrites, epochsCommitted    atomic.Int64
		epochsSealed, epochsAborted      atomic.Int64
		sieveWindows, sieveBytes         atomic.Int64
		checkpoints                      atomic.Int64
	}
	opNs map[int]*obs.Hist // per-op handling latency, when Metrics is set

	// locks serializes writers to the stripe by local byte range: a sieve
	// window is a read-modify-write, so every write to Backend — view,
	// raw, or epoch apply — holds its range (sieve.go).
	locks  *storage.LockTable
	window int64 // sieve window size: sieveWindow, smaller in tests so that requests straddle windows

	// Epoch commit state: staged holds each in-flight epoch's parked
	// segments (applied to Backend only at commit), lastCommitted the
	// highest epoch this instance has applied.  epochMu also orders
	// checkpoints against commits.
	epochMu       sync.Mutex
	staged        map[uint64][]storage.Segment
	lastCommitted uint64
	checkpointAt  int64        // live journal bytes at which a commit checkpoints: checkpointBytes, smaller in tests
	journaled     atomic.Int64 // epochs committed since the last checkpoint, which only the journal holds durably

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	done   chan struct{} // closed when Serve returns
}

// New validates cfg and builds a server (not yet listening).
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, errors.New("ioserver: nil backend")
	}
	if err := cfg.Geom.Validate(); err != nil {
		return nil, err
	}
	if cfg.Index < 0 || cfg.Index >= cfg.Geom.Count {
		return nil, fmt.Errorf("ioserver: stripe index %d out of range [0,%d)", cfg.Index, cfg.Geom.Count)
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = transport.DefaultMaxFrame
	}
	if cfg.ViewCache <= 0 {
		cfg.ViewCache = DefaultViewCache
	}
	j := cfg.Journal
	if j == nil {
		j = NewJournal(storage.NewMem())
	}
	s := &Server{
		cfg:          cfg,
		journal:      j,
		incarnation:  time.Now().UnixNano(),
		locks:        storage.NewLockTable(),
		window:       sieveWindow,
		checkpointAt: checkpointBytes,
		staged:       make(map[uint64][]storage.Segment),
		conns:        make(map[net.Conn]struct{}),
		done:         make(chan struct{}),
	}
	s.registerMetrics(cfg.Metrics)
	return s, nil
}

// registerMetrics joins the server's counters to the metrics plane: the
// op tallies as zero-hot-path-cost gauge callbacks over the existing
// atomics, plus one latency histogram per protocol op.
func (s *Server) registerMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc("ioserver_requests_total", "Requests handled, all ops.", s.stats.requests.Load)
	r.GaugeFunc("ioserver_raw_reads_total", "opRead and opReadv requests served.", s.stats.rawReads.Load)
	r.GaugeFunc("ioserver_raw_writes_total", "opWrite and opWritev requests served.", s.stats.rawWrites.Load)
	r.GaugeFunc("ioserver_view_reads_total", "opViewRead requests served.", s.stats.viewReads.Load)
	r.GaugeFunc("ioserver_view_writes_total", "opViewWrite requests served.", s.stats.viewWrites.Load)
	r.GaugeFunc("ioserver_sieve_windows_total", "Sieve windows moved (page-dense pieces of view, list and commit traffic).", s.stats.sieveWindows.Load)
	r.GaugeFunc("ioserver_sieve_bytes_total", "Stripe bytes the sieve windows read and wrote back.", s.stats.sieveBytes.Load)
	r.GaugeFunc("ioserver_view_registrations_total", "opRegister requests that decoded a new view.", s.stats.viewRegs.Load)
	r.GaugeFunc("ioserver_view_cache_hits_total", "opRegister requests answered from the view LRU.", s.stats.viewHits.Load)
	r.GaugeFunc("ioserver_view_stale_handles_total", "View requests naming an evicted or unknown handle.", s.stats.staleHandles.Load)
	r.GaugeFunc("ioserver_read_bytes_total", "Data bytes sent to clients.", s.stats.bytesRead.Load)
	r.GaugeFunc("ioserver_written_bytes_total", "Data bytes received from clients.", s.stats.bytesWritten.Load)
	r.GaugeFunc("ioserver_staged_writes_total", "Epoch-staged write requests.", s.stats.stagedWrites.Load)
	r.GaugeFunc("ioserver_epochs_committed_total", "Epoch commits applied.", s.stats.epochsCommitted.Load)
	r.GaugeFunc("ioserver_epochs_sealed_total", "Epoch seal requests answered.", s.stats.epochsSealed.Load)
	r.GaugeFunc("ioserver_epochs_aborted_total", "Epochs whose staged state was discarded by abort.", s.stats.epochsAborted.Load)
	r.GaugeFunc("ioserver_journal_fsyncs_total", "Journal syncs: one per commit, one per checkpoint's reset, one per seal.", s.journal.Fsyncs)
	r.GaugeFunc("ioserver_checkpoints_total", "Checkpoints: stripe synced, then journal reset.", s.stats.checkpoints.Load)
	r.GaugeFunc("ioserver_journal_live_bytes", "Journal bytes a recovery would replay: records since the last checkpoint.", s.journal.Live)
	r.GaugeFunc("ioserver_epochs_recovered_total", "Committed epochs re-applied by journal recovery at start.",
		func() int64 { return int64(s.cfg.Recovery.AppliedEpochs) })
	r.GaugeFunc("ioserver_epochs_discarded_total", "Staged-but-uncommitted epochs discarded by recovery.",
		func() int64 { return int64(s.cfg.Recovery.DiscardedEpochs) })
	r.GaugeFunc("ioserver_journal_torn_tails_total", "Torn journal tails truncated by recovery.",
		func() int64 {
			if s.cfg.Recovery.TornTail {
				return 1
			}
			return 0
		})
	s.opNs = make(map[int]*obs.Hist)
	for _, tag := range []int{opRead, opWrite, opReadv, opWritev, opSize, opTruncate, opSync,
		opRegister, opViewRead, opViewWrite, opStats,
		opStageWrite, opStageWritev, opStageViewWrite,
		opEpochSeal, opEpochCommit, opEpochAbort} {
		s.opNs[tag] = r.Hist("ioserver_op_ns", "Server-side request handling latency by op.",
			obs.Label{Key: "op", Value: opName(tag)})
	}
}

// opName labels a protocol op for metrics.
func opName(tag int) string {
	switch tag {
	case opRead:
		return "read"
	case opWrite:
		return "write"
	case opReadv:
		return "readv"
	case opWritev:
		return "writev"
	case opSize:
		return "size"
	case opTruncate:
		return "truncate"
	case opSync:
		return "sync"
	case opRegister:
		return "register"
	case opViewRead:
		return "view_read"
	case opViewWrite:
		return "view_write"
	case opStats:
		return "stats"
	case opStageWrite:
		return "stage_write"
	case opStageWritev:
		return "stage_writev"
	case opStageViewWrite:
		return "stage_view_write"
	case opEpochSeal:
		return "epoch_seal"
	case opEpochCommit:
		return "epoch_commit"
	case opEpochAbort:
		return "epoch_abort"
	}
	return "unknown"
}

// Serve accepts connections on ln until Close, handling each on its own
// goroutine.  It returns nil after a Close-initiated shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("ioserver: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	defer close(s.done)

	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.handleConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, checkpoints and then seals the journal (so a
// graceful shutdown is distinguishable from a crash on recovery, and
// leaves nothing to replay), closes every live connection, and waits for
// the handlers and Serve to return.  Close is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()

	// Graceful-shutdown seal: checkpoint, then mark the journal, before
	// dropping connections.  The seal says the stripe is whole without a
	// replay, so it is written only once that is so.  Failures are
	// reported but do not abort the shutdown.
	s.epochMu.Lock()
	err := s.checkpoint()
	if err == nil {
		err = s.journal.AppendSeal()
	}
	s.epochMu.Unlock()

	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if ln == nil {
		return err
	}
	ln.Close()
	<-s.done
	return err
}

// Stats snapshots the request counters.  The recovery numbers come from
// the journal recovery that produced cfg.Journal (zero for fresh
// starts), so a restarted server's stats carry its crash history.
func (s *Server) Stats() ServerStats {
	torn := int64(0)
	if s.cfg.Recovery.TornTail {
		torn = 1
	}
	return ServerStats{
		Requests:          s.stats.requests.Load(),
		RawReads:          s.stats.rawReads.Load(),
		RawWrites:         s.stats.rawWrites.Load(),
		ViewReads:         s.stats.viewReads.Load(),
		ViewWrites:        s.stats.viewWrites.Load(),
		ViewRegistrations: s.stats.viewRegs.Load(),
		ViewCacheHits:     s.stats.viewHits.Load(),
		StaleHandles:      s.stats.staleHandles.Load(),
		BytesRead:         s.stats.bytesRead.Load(),
		BytesWritten:      s.stats.bytesWritten.Load(),
		StagedWrites:      s.stats.stagedWrites.Load(),
		EpochsCommitted:   s.stats.epochsCommitted.Load(),
		EpochsSealed:      s.stats.epochsSealed.Load(),
		EpochsAborted:     s.stats.epochsAborted.Load(),
		JournalFsyncs:     s.journal.Fsyncs(),
		EpochsRecovered:   int64(s.cfg.Recovery.AppliedEpochs),
		EpochsDiscarded:   int64(s.cfg.Recovery.DiscardedEpochs),
		TornTails:         torn,
	}
}

// serverView is one decoded registration in a connection's cache.
type serverView struct {
	key    string // the raw opRegister payload, the cache key
	handle uint64
	disp   int64
	t      *datatype.Type
	// prog is the view's compiled copy program, built once at
	// registration.  Non-nil selects the navigated path (eachUnit and
	// viewMove); it is nil when the view is not navigable or declines
	// compilation, and the request then walks the view run by run.
	prog *fotf.Program
}

// connState is the per-connection handler state: the registered-view
// LRU plus reusable scratch buffers.  It is confined to the
// connection's goroutine.
type connState struct {
	srv *Server
	fc  *transport.FrameConn

	views  map[uint64]*serverView // live handles
	byKey  map[string]*serverView // cache index
	lru    []*serverView          // least recent first
	nextID uint64

	resp  []byte            // response staging buffer, reused
	segs  []storage.Segment // vectored-call staging, reused
	units []unitPiece       // sieve-window staging, reused

	// Staging tally for the connection's in-flight epoch, echoed by
	// opEpochSeal so the client can verify nothing staged was lost to a
	// silent restart.
	tallyEpoch             uint64
	tallyCount, tallyBytes int64
}

// handleConn serves one connection to completion.  Malformed framing
// tears the connection down (the stream cannot be resynchronized);
// malformed requests inside a valid frame answer with an opErr frame
// and keep the connection.
func (s *Server) handleConn(conn net.Conn) {
	st := &connState{
		srv:   s,
		fc:    transport.NewFrameConn(conn, s.cfg.MaxFrame),
		views: make(map[uint64]*serverView),
		byKey: make(map[string]*serverView),
	}
	defer st.fc.Close()
	for {
		seq, tag, payload, err := st.fc.ReadFrame()
		if err != nil {
			// EOF is the client hanging up; anything else is a framing
			// failure — either way the stream is over.
			return
		}
		s.stats.requests.Add(1)
		if err := st.handle(seq, tag, payload); err != nil {
			return // response write failed: connection is gone
		}
	}
}

// handle dispatches one request and writes its response.  The returned
// error reports only response-write failures.
func (st *connState) handle(seq, tag int, payload []byte) error {
	var t0 time.Time
	if st.srv.opNs != nil {
		t0 = time.Now()
	}
	resp, err := st.dispatch(tag, payload)
	if st.srv.opNs != nil {
		st.srv.opNs[tag].ObserveSince(t0) // nil map entry (unknown op) no-ops
	}
	if err != nil {
		class, msg := wireError(err)
		if errors.Is(err, errStale) {
			class = classStale
		} else if errors.Is(err, errTruncated) || errors.Is(err, errBadRequest) {
			class = classBad
		}
		st.resp = putV(st.resp[:0], class)
		st.resp = append(st.resp, msg...)
		return st.fc.WriteFrame(seq, opErr, st.resp)
	}
	return st.fc.WriteFrame(seq, tag, resp)
}

// errBadRequest classifies a structurally valid but unserviceable
// request (bad lengths, unknown op, oversized response).
var errBadRequest = errors.New("ioserver: bad request")

func (st *connState) dispatch(tag int, payload []byte) ([]byte, error) {
	switch tag {
	case opWrite, opWritev, opViewWrite, opTruncate:
		// The direct mutations of the stripe.
		if err := st.srv.settle(); err != nil {
			return nil, err
		}
	}
	switch tag {
	case opRead:
		return st.opRead(payload)
	case opWrite:
		return st.opWrite(payload)
	case opReadv:
		return st.opReadv(payload)
	case opWritev:
		return st.opWritev(payload)
	case opSize:
		return putV(st.resp[:0], st.srv.cfg.Backend.Size()), nil
	case opTruncate:
		n, _, err := getV(payload)
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, fmt.Errorf("%w: negative truncate %d", errBadRequest, n)
		}
		// A sieve window beyond n must not write back what it read
		// before the cut.
		defer st.srv.locks.Lock(n, math.MaxInt64)()
		return nil, st.srv.cfg.Backend.Truncate(n)
	case opSync:
		// What was written directly before the sync must survive it: the
		// checkpoint syncs the stripe and leaves nothing to replay over it.
		st.srv.epochMu.Lock()
		defer st.srv.epochMu.Unlock()
		return nil, st.srv.checkpoint()
	case opRegister:
		return st.opRegister(payload)
	case opViewRead:
		return st.opView(payload, false)
	case opViewWrite:
		return st.opView(payload, true)
	case opStats:
		return st.srv.Stats().encode(st.resp[:0]), nil
	case opStageWrite:
		return st.opStageWrite(payload)
	case opStageWritev:
		return st.opStageWritev(payload)
	case opStageViewWrite:
		return st.opStageViewWrite(payload)
	case opEpochSeal:
		return st.opEpochSeal(payload)
	case opEpochCommit:
		return st.opEpochCommit(payload)
	case opEpochAbort:
		return st.opEpochAbort(payload)
	}
	return nil, fmt.Errorf("%w: unknown op %d", errBadRequest, tag)
}

// opRead: off, n → eof flag, data.  Plain ReadAt relay, preserving the
// short-read-plus-EOF shape of the Backend contract.
func (st *connState) opRead(payload []byte) ([]byte, error) {
	off, payload, err := getV(payload)
	if err != nil {
		return nil, err
	}
	n, _, err := getV(payload)
	if err != nil {
		return nil, err
	}
	if off < 0 || n < 0 || n > int64(st.srv.cfg.MaxFrame)-1 {
		return nil, fmt.Errorf("%w: read off %d len %d", errBadRequest, off, n)
	}
	sp := st.srv.cfg.Tracer.BeginIO(trace.PhaseServerRead, off, n)
	defer sp.End()
	st.resp = grow(st.resp[:0], 1+n)
	st.resp[0] = 0
	m, err := st.srv.cfg.Backend.ReadAt(st.resp[1:1+n], off)
	if err == io.EOF {
		st.resp[0] = 1
	} else if err != nil {
		return nil, err
	}
	st.srv.stats.rawReads.Add(1)
	st.srv.stats.bytesRead.Add(int64(m))
	return st.resp[:1+m], nil
}

// opWrite: off, data → —.
func (st *connState) opWrite(payload []byte) ([]byte, error) {
	off, data, err := getV(payload)
	if err != nil {
		return nil, err
	}
	if off < 0 {
		return nil, fmt.Errorf("%w: write off %d", errBadRequest, off)
	}
	sp := st.srv.cfg.Tracer.BeginIO(trace.PhaseServerWrite, off, int64(len(data)))
	defer sp.End()
	unlock := st.srv.locks.Lock(off, off+int64(len(data)))
	_, err = st.srv.cfg.Backend.WriteAt(data, off)
	unlock()
	if err != nil {
		return nil, err
	}
	st.srv.stats.rawWrites.Add(1)
	st.srv.stats.bytesWritten.Add(int64(len(data)))
	return nil, nil
}

// opReadv: k, k×(off,n) → concatenated data (ReadFull semantics per
// entry: bytes past the stripe's EOF read as zeros).
func (st *connState) opReadv(payload []byte) ([]byte, error) {
	k, payload, err := getV(payload)
	if err != nil {
		return nil, err
	}
	if k < 0 || k > MaxListRuns {
		return nil, fmt.Errorf("%w: list of %d runs (limit %d)", errBadRequest, k, MaxListRuns)
	}
	type ent struct{ off, n int64 }
	ents := make([]ent, 0, k)
	var total int64
	for i := int64(0); i < k; i++ {
		var off, n int64
		if off, payload, err = getV(payload); err != nil {
			return nil, err
		}
		if n, payload, err = getV(payload); err != nil {
			return nil, err
		}
		if off < 0 || n < 0 || total+n > int64(st.srv.cfg.MaxFrame) {
			return nil, fmt.Errorf("%w: list entry off %d len %d", errBadRequest, off, n)
		}
		ents = append(ents, ent{off, n})
		total += n
	}
	sp := st.srv.cfg.Tracer.BeginIO(trace.PhaseServerRead, 0, total)
	defer sp.End()
	st.resp = grow(st.resp[:0], total)
	st.segs = st.segs[:0]
	var pos int64
	for _, e := range ents {
		st.segs = append(st.segs, storage.Segment{Off: e.off, Buf: st.resp[pos : pos+e.n]})
		pos += e.n
	}
	if err := storage.ReadAtv(st.srv.cfg.Backend, st.segs); err != nil {
		return nil, err
	}
	st.srv.stats.rawReads.Add(1)
	st.srv.stats.bytesRead.Add(total)
	return st.resp, nil
}

// opWritev: k, k×(off,n), concatenated data → —.
func (st *connState) opWritev(payload []byte) ([]byte, error) {
	k, payload, err := getV(payload)
	if err != nil {
		return nil, err
	}
	if k < 0 || k > MaxListRuns {
		return nil, fmt.Errorf("%w: list of %d runs (limit %d)", errBadRequest, k, MaxListRuns)
	}
	st.segs = st.segs[:0]
	var total int64
	offs := make([][2]int64, 0, k)
	for i := int64(0); i < k; i++ {
		var off, n int64
		if off, payload, err = getV(payload); err != nil {
			return nil, err
		}
		if n, payload, err = getV(payload); err != nil {
			return nil, err
		}
		if off < 0 || n < 0 || total+n > int64(st.srv.cfg.MaxFrame) {
			return nil, fmt.Errorf("%w: list entry off %d len %d", errBadRequest, off, n)
		}
		offs = append(offs, [2]int64{off, n})
		total += n
	}
	if int64(len(payload)) != total {
		return nil, fmt.Errorf("%w: write list names %d bytes, payload carries %d", errBadRequest, total, len(payload))
	}
	sp := st.srv.cfg.Tracer.BeginIO(trace.PhaseServerWrite, 0, total)
	defer sp.End()
	var pos int64
	for _, e := range offs {
		st.segs = append(st.segs, storage.Segment{Off: e[0], Buf: payload[pos : pos+e[1]]})
		pos += e[1]
	}
	if err := st.srv.moveSegs(st.segs, true); err != nil {
		return nil, err
	}
	st.srv.stats.rawWrites.Add(1)
	st.srv.stats.bytesWritten.Add(total)
	return nil, nil
}

// opRegister: disp, encoded filetype → handle.  The whole payload is
// the cache key, so a repeat registration of the same view — every rank
// re-opening the same fileview, or a client re-registering after
// reconnect — is a cache hit that skips the decode.
func (st *connState) opRegister(payload []byte) ([]byte, error) {
	if v, ok := st.byKey[string(payload)]; ok {
		st.srv.stats.viewHits.Add(1)
		st.srv.cfg.Tracer.Instant(trace.PhaseServerViewHit, int64(v.handle), 0, "")
		st.touch(v)
		return putV(st.resp[:0], int64(v.handle)), nil
	}
	disp, enc, err := getV(payload)
	if err != nil {
		return nil, err
	}
	if disp < 0 {
		return nil, fmt.Errorf("%w: negative displacement %d", errBadRequest, disp)
	}
	t, err := datatype.Decode(enc)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	st.nextID++
	v := &serverView{key: string(payload), handle: st.nextID, disp: disp, t: t}
	if navigable(t, disp) {
		v.prog = fotf.Compile(t)
	}
	st.views[v.handle] = v
	st.byKey[v.key] = v
	st.lru = append(st.lru, v)
	if len(st.lru) > st.srv.cfg.ViewCache {
		old := st.lru[0]
		st.lru = st.lru[1:]
		delete(st.views, old.handle)
		delete(st.byKey, old.key)
	}
	st.srv.stats.viewRegs.Add(1)
	st.srv.cfg.Tracer.Instant(trace.PhaseServerViewReg, int64(v.handle), int64(len(enc)), "")
	return putV(st.resp[:0], int64(v.handle)), nil
}

// touch marks v most recently used.
func (st *connState) touch(v *serverView) {
	for i, u := range st.lru {
		if u == v {
			copy(st.lru[i:], st.lru[i+1:])
			st.lru[len(st.lru)-1] = v
			return
		}
	}
}

// viewReq decodes the (handle, d0, d1) head of a view request and looks
// the handle up; rest is what follows the head.
func (st *connState) viewReq(payload []byte) (v *serverView, d0, d1 int64, rest []byte, err error) {
	h, payload, err := getV(payload)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	if d0, payload, err = getV(payload); err != nil {
		return nil, 0, 0, nil, err
	}
	if d1, payload, err = getV(payload); err != nil {
		return nil, 0, 0, nil, err
	}
	if d0 < 0 || d1 < d0 || d1-d0 > int64(st.srv.cfg.MaxFrame) {
		return nil, 0, 0, nil, fmt.Errorf("%w: view range [%d,%d)", errBadRequest, d0, d1)
	}
	v, ok := st.views[uint64(h)]
	if !ok {
		st.srv.stats.staleHandles.Add(1)
		st.srv.cfg.Tracer.Instant(trace.PhaseServerViewStale, h, 0, "")
		return nil, 0, 0, nil, fmt.Errorf("view handle %d: %w", h, errStale)
	}
	return v, d0, d1, payload, nil
}

// errShortStream reports a view write whose payload ends before the
// bytes its stripe owns do (a read's stream is sized to the whole range
// and cannot run short).
func errShortStream(stream []byte) error {
	return fmt.Errorf("%w: view write carries %d bytes, stripe owns more", errBadRequest, len(stream))
}

// ownedSegs walks data range [d0, d1) of the view run by run and appends
// the pieces this stripe owns to st.segs as segments over stream, in
// data order.  Whenever flushAt of them have gathered it calls flush,
// which must consume st.segs; a nil flush gathers them all.  It returns
// the stream bytes the pieces cover, and fails when stream is shorter.
func (st *connState) ownedSegs(v *serverView, d0, d1 int64, stream []byte, flush func() error) (int64, error) {
	const flushAt = 1024
	cfg := &st.srv.cfg
	var pos int64
	err := walkView(v.t, v.disp, cfg.Geom, d0, d1, func(stripe int, localOff, _, n int64) error {
		if stripe != cfg.Index {
			return nil
		}
		if pos+n > int64(len(stream)) {
			return errShortStream(stream)
		}
		st.segs = append(st.segs, storage.Segment{Off: localOff, Buf: stream[pos : pos+n]})
		pos += n
		if flush != nil && len(st.segs) >= flushAt {
			return flush()
		}
		return nil
	})
	return pos, err
}

// opView serves opViewRead / opViewWrite: handle, d0, d1 [, data].  The
// server cuts [d0, d1) of the registered pattern at its stripe's units
// in one pass and moves the bytes it owns against its local backend in
// data order.  A navigable view takes viewMove: no run is enumerated
// unless its window turns out not to be page-dense.  Any other view is
// walked run by run, in bounded batches so that a hostile
// many-tiny-runs view cannot force an oversized segment list.
func (st *connState) opView(payload []byte, write bool) ([]byte, error) {
	v, d0, d1, payload, err := st.viewReq(payload)
	if err != nil {
		return nil, err
	}
	srv := st.srv
	stream, ph := payload, trace.PhaseServerViewWrite
	if !write {
		// The stripe's share is known only once the pass is over, and
		// is at most the whole range.
		st.resp = grow(st.resp[:0], d1-d0)
		stream, ph = st.resp, trace.PhaseServerViewRead
	}
	var total int64
	sp := srv.cfg.Tracer.BeginIO(ph, d0, 0)
	defer func() { sp.EndBytes(total) }()

	if v.prog != nil {
		m := viewMove{st: st, v: v, write: write, stream: stream, units: st.units[:0]}
		err = eachUnit(v.t, v.disp, srv.cfg.Geom, srv.cfg.Index, d0, d1, m.addUnit)
		if err == nil {
			err = m.flush()
		}
		st.units, total = m.units, m.pos
	} else {
		st.segs = st.segs[:0]
		flush := func() error {
			err := srv.moveSegs(st.segs, write)
			st.segs = st.segs[:0]
			return err
		}
		total, err = st.ownedSegs(v, d0, d1, stream, flush)
		if err == nil {
			err = flush()
		}
	}
	if err != nil {
		return nil, err
	}
	if write {
		if total != int64(len(payload)) {
			return nil, fmt.Errorf("%w: view write carries %d bytes, stripe owns %d of [%d,%d)", errBadRequest, len(payload), total, d0, d1)
		}
		srv.stats.viewWrites.Add(1)
		srv.stats.bytesWritten.Add(total)
		return nil, nil
	}
	srv.stats.viewReads.Add(1)
	srv.stats.bytesRead.Add(total)
	return st.resp[:total], nil
}

// grow returns buf extended to n bytes, reallocating only when the
// capacity is short.
func grow(buf []byte, n int64) []byte {
	if int64(cap(buf)) >= n {
		return buf[:n]
	}
	return make([]byte, n)
}
