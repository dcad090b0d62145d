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

	"repro/internal/counter"
	"repro/internal/datatype"
	"repro/internal/fotf"
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
	// recovery found; its counts fold into Stats so op=stats reflects
	// crash-consistency activity across restarts.
	Recovery RecoveryInfo

	// maxFrame bounds request and response payloads (0 selects
	// transport.DefaultMaxFrame); header lengths are validated against
	// it before any allocation.  viewCache is the per-connection
	// registered-view LRU capacity (0 selects DefaultViewCache); evicted
	// handles answer later view requests with a stale-handle error,
	// which clients repair by re-registering.  Both are this package's
	// tests' seams, lowered to reach the limits with small requests.
	maxFrame, viewCache int
}

// Server serves one stripe of a file to any number of client
// connections.
type Server struct {
	// stats is the live store of ServerStats' counters, written and read
	// through sync/atomic only (Stats snapshots it) and therefore first:
	// 64-bit aligned on every platform.
	stats ServerStats

	cfg         Config
	snd         storage.Sender // cfg.Backend's send extension, nil when it has none
	lim         bounds         // what requests are held against: cfg.maxFrame and cfg.Geom's offset space
	journal     *Journal
	incarnation int64 // instance id, fresh per process start

	// locks serializes writers to the stripe by local byte range: a sieve
	// window is a read-modify-write, so every write to Backend — view,
	// raw, or epoch apply — holds its range (sieve.go).
	locks  *storage.LockTable
	window int64 // sieve window size: sieveWindow, smaller in tests so that requests straddle windows

	// Epoch commit state: staged holds each in-flight epoch's parked
	// segments (applied to Backend only at commit) and the frames they
	// lie in, lastCommitted the highest epoch this instance has applied.
	// epochMu also orders checkpoints against commits.
	epochMu       sync.Mutex
	staged        map[uint64]stagedEpoch
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
	if cfg.maxFrame <= 0 {
		cfg.maxFrame = transport.DefaultMaxFrame
	}
	if cfg.viewCache <= 0 {
		cfg.viewCache = DefaultViewCache
	}
	j := cfg.Journal
	if j == nil {
		j = NewJournal(storage.NewMem())
	}
	s := &Server{
		cfg:          cfg,
		lim:          bounds{maxFrame: int64(cfg.maxFrame), maxLocal: max(math.MaxInt64/int64(cfg.Geom.Count)-cfg.Geom.Unit, 0)},
		journal:      j,
		incarnation:  time.Now().UnixNano(),
		locks:        storage.NewLockTable(),
		window:       sieveWindow,
		checkpointAt: checkpointBytes,
		staged:       make(map[uint64]stagedEpoch),
		conns:        make(map[net.Conn]struct{}),
		done:         make(chan struct{}),
	}
	s.snd, _ = storage.AsSender(cfg.Backend)
	// What recovery found is this instance's history from the start.
	s.stats.EpochsRecovered = int64(cfg.Recovery.AppliedEpochs)
	s.stats.EpochsDiscarded = int64(cfg.Recovery.DiscardedEpochs)
	if cfg.Recovery.TornTail {
		s.stats.TornTails = 1
	}
	return s, nil
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
// leaves nothing to replay), closes every live connection, waits for the
// handlers and Serve to return, and drops the epochs still staged, as a
// restart would.  Close is idempotent.
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
	if ln != nil {
		ln.Close()
		<-s.done
	}
	s.epochMu.Lock()
	s.dropStaged()
	s.epochMu.Unlock()
	return err
}

// Stats snapshots the request counters.  The recovery numbers come from
// the journal recovery that produced cfg.Journal (zero for fresh
// starts), so a restarted server's stats carry its crash history; the
// journal counts its own syncs.
func (s *Server) Stats() ServerStats {
	st := counter.Load(&s.stats)
	st.JournalFsyncs = s.journal.Fsyncs()
	return st
}

// serverView is one decoded registration in a connection's cache.
type serverView struct {
	key    string // the raw opRegister payload, the cache key
	handle uint64
	disp   int64
	t      *datatype.Type
	// prog is the view's compiled copy program, built once at
	// registration, or nil when the type declines compilation: each
	// request's cursor (viewMove) runs it, or walks the tree without it.
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

	// A request's payload: a staged mutation's in frame, a pooled frame
	// that stage parks with its epoch, any other's in req, reused.
	frame []byte
	req   []byte

	resp  []byte            // response staging buffer, reused
	ents  []extent          // decoded offset list, reused
	segs  []storage.Segment // vectored-call staging, reused
	units []unitPiece       // sieve-window staging, reused

	// A raw read over a store that sends (Server.snd) leaves its bytes
	// in no buffer: its handler sets sending and sendLen, and handle
	// streams the response, which sendOut writes.
	sending bool
	sendLen int64
	exts    []storage.Extent               // the streamed extents, reused
	fill    func(io.Writer) (int64, error) // st.sendOut, bound once

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
		fc:    transport.NewFrameConn(conn, s.cfg.maxFrame),
		views: make(map[uint64]*serverView),
		byKey: make(map[string]*serverView),
	}
	st.fill = st.sendOut
	defer st.fc.Close()
	for {
		seq, tag, payload, err := st.readRequest()
		if err == nil {
			atomic.AddInt64(&s.stats.Requests, 1)
			err = st.handle(seq, tag, payload)
		}
		framePool.Put(st.frame) // a frame stage did not park
		st.frame = nil
		if err != nil {
			// EOF is the client hanging up, anything else a framing failure
			// or a failed response write — either way the stream is over.
			return
		}
	}
}

// readRequest is the request reader: it reads the next frame's header
// and then its payload into st.frame, from the pool, when the op is a
// staged mutation — stage parks the frame with its epoch — and into the
// reused st.req otherwise.
func (st *connState) readRequest() (seq, tag int, payload []byte, err error) {
	seq, tag, n, err := st.fc.ReadHeader()
	if err != nil {
		return 0, 0, nil, err
	}
	if op := opFor(tag); op != nil && op.direct != 0 {
		st.frame = framePool.Get(n)
		payload = st.frame
	} else {
		st.req = grow(st.req, int64(n))
		payload = st.req
	}
	return seq, tag, payload, st.fc.ReadPayload(payload)
}

// handle dispatches one request and writes its response.  The returned
// error reports only response-write failures, and a streamed read that
// failed once its response had begun to go out: the stream is then cut
// and the connection goes.  Before that a failed read answers opErr.
func (st *connState) handle(seq, tag int, payload []byte) error {
	resp, err := st.dispatch(tag, payload)
	if err == nil && st.sending {
		st.sending = false
		var sent bool
		if sent, err = st.fc.WriteFrameFrom(seq, tag, int(st.sendLen), st.fill); err == nil || sent {
			return err
		}
	}
	if err != nil {
		st.resp = putErr(st.resp[:0], err)
		return st.fc.WriteFrame(seq, opErr, st.resp)
	}
	return st.fc.WriteFrame(seq, tag, resp)
}

// dispatch serves one request by its row of the protocol table.
func (st *connState) dispatch(tag int, body []byte) ([]byte, error) {
	op := opFor(tag)
	if op == nil || op.serve == nil {
		return nil, fmt.Errorf("%w: unknown op %d", errBadRequest, tag)
	}
	var epoch uint64
	if op.epoch {
		var err error
		if epoch, body, err = getEpoch(body); err != nil {
			return nil, err
		}
	}
	if op.mutates {
		if err := st.srv.settle(); err != nil {
			return nil, err
		}
	}
	return op.serve(st, epoch, body)
}

// sends reports whether a read's response is streamed, which it is over
// a store that sends, on a connection: a handler state driven without
// one, as the tests drive it, answers in the response buffer.
func (st *connState) sends() bool { return st.srv.snd != nil && st.fc != nil }

// sendOut is the fill of a streamed read: the bytes of st.exts, which
// the store writes to the connection itself.
func (st *connState) sendOut(w io.Writer) (int64, error) {
	srv := st.srv
	sp := srv.cfg.Tracer.BeginIO(trace.PhaseServerRead, 0, st.sendLen)
	defer sp.End()
	m, err := srv.snd.SendTo(w, st.exts)
	if err != nil {
		return m, err
	}
	atomic.AddInt64(&srv.stats.RawReads, 1)
	atomic.AddInt64(&srv.stats.BytesRead, m)
	return m, nil
}

// listSegs decodes the offset list at the head of body into st.segs,
// laid in list order over a write's data — which follows the list and
// must be exactly as long as the list says — or over a read's response
// buffer.  A read over a store that sends takes the list into st.exts
// instead, and no buffer.
func (st *connState) listSegs(body []byte, write bool) (total int64, err error) {
	var stream []byte
	if st.ents, total, stream, err = st.srv.lim.getList(body, st.ents[:0]); err != nil {
		return 0, err
	}
	if !write && st.sends() {
		st.exts = st.exts[:0]
		for _, e := range st.ents {
			st.exts = append(st.exts, storage.Extent{Off: e.off, N: e.n})
		}
		return total, nil
	}
	if !write {
		st.resp = grow(st.resp[:0], total)
		stream = st.resp
	} else if int64(len(stream)) != total {
		return 0, fmt.Errorf("%w: write list names %d bytes, payload carries %d", errBadRequest, total, len(stream))
	}
	st.segs = st.segs[:0]
	for _, e := range st.ents {
		st.segs = append(st.segs, storage.Segment{Off: e.off, Buf: stream[:e.n]})
		stream = stream[e.n:]
	}
	return total, nil
}

// opReadv: list → concatenated data (ReadFull semantics per entry:
// bytes past the stripe's EOF read as zeros).  Over a store that sends,
// the bytes are sent, and the response buffer does not grow to them.
func (st *connState) opReadv(_ uint64, body []byte) ([]byte, error) {
	total, err := st.listSegs(body, false)
	if err != nil {
		return nil, err
	}
	if st.sends() {
		st.sending, st.sendLen = true, total
		return nil, nil
	}
	sp := st.srv.cfg.Tracer.BeginIO(trace.PhaseServerRead, 0, total)
	defer sp.End()
	if err := st.srv.cfg.Backend.ReadAtv(st.segs); err != nil {
		return nil, err
	}
	atomic.AddInt64(&st.srv.stats.RawReads, 1)
	atomic.AddInt64(&st.srv.stats.BytesRead, total)
	return st.resp, nil
}

// opWritev: list, concatenated data → —; under an epoch, staged, and
// otherwise moved to the stripe.
func (st *connState) opWritev(epoch uint64, body []byte) ([]byte, error) {
	total, err := st.listSegs(body, true)
	if err != nil {
		return nil, err
	}
	if epoch != 0 {
		sp := st.srv.cfg.Tracer.BeginIO(trace.PhaseServerStage, 0, total)
		defer sp.End()
		return nil, st.stage(epoch, total)
	}
	sp := st.srv.cfg.Tracer.BeginIO(trace.PhaseServerWrite, 0, total)
	defer sp.End()
	if err := st.srv.moveSegs(st.segs, true); err != nil {
		return nil, err
	}
	atomic.AddInt64(&st.srv.stats.RawWrites, 1)
	atomic.AddInt64(&st.srv.stats.BytesWritten, total)
	return nil, nil
}

func (st *connState) opSize(uint64, []byte) ([]byte, error) {
	return putV(st.resp[:0], st.srv.cfg.Backend.Size()), nil
}

func (st *connState) opTruncate(_ uint64, body []byte) ([]byte, error) {
	n, _, err := getV(body)
	if err != nil {
		return nil, err
	}
	if err := st.srv.lim.check(extent{0, n}); err != nil {
		return nil, err
	}
	// A sieve window beyond n must not write back what it read before
	// the cut.
	st.srv.locks.Lock(n, math.MaxInt64)
	defer st.srv.locks.Unlock(n, math.MaxInt64)
	return nil, st.srv.cfg.Backend.Truncate(n)
}

// opSync: — → —.  What was written directly before the sync must
// survive it: the checkpoint syncs the stripe and leaves nothing to
// replay over it.
func (st *connState) opSync(uint64, []byte) ([]byte, error) {
	st.srv.epochMu.Lock()
	defer st.srv.epochMu.Unlock()
	return nil, st.srv.checkpoint()
}

func (st *connState) opStats(uint64, []byte) ([]byte, error) {
	return st.srv.Stats().encode(st.resp[:0]), nil
}

// opRegister: disp, encoded filetype → handle.  The whole payload is
// the cache key, so a repeat registration of the same view — every rank
// re-opening the same fileview, or a client re-registering after
// reconnect — is a cache hit that skips the decode.  A view SetView
// would refuse (checkView) is a bad request.
func (st *connState) opRegister(_ uint64, payload []byte) ([]byte, error) {
	if v, ok := st.byKey[string(payload)]; ok {
		atomic.AddInt64(&st.srv.stats.ViewCacheHits, 1)
		st.srv.cfg.Tracer.Instant(trace.PhaseServerViewHit, int64(v.handle), 0, "")
		st.touch(v)
		return putV(st.resp[:0], int64(v.handle)), nil
	}
	disp, enc, err := getV(payload)
	if err != nil {
		return nil, err
	}
	t, err := datatype.Decode(enc)
	if err == nil {
		err = checkView(disp, t)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	st.nextID++
	v := &serverView{key: string(payload), handle: st.nextID, disp: disp, t: t, prog: fotf.Compile(t)}
	st.views[v.handle] = v
	st.byKey[v.key] = v
	st.lru = append(st.lru, v)
	if len(st.lru) > st.srv.cfg.viewCache {
		old := st.lru[0]
		st.lru = st.lru[1:]
		delete(st.views, old.handle)
		delete(st.byKey, old.key)
	}
	atomic.AddInt64(&st.srv.stats.ViewRegistrations, 1)
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

// errShortStream reports a view write whose payload ends before the
// bytes its stripe owns do (a read's stream grows with the cut).
func errShortStream(stream []byte) error {
	return fmt.Errorf("%w: view write carries %d bytes, stripe owns more", errBadRequest, len(stream))
}

func (st *connState) opViewRead(_ uint64, body []byte) ([]byte, error) {
	return st.opView(0, body, false)
}

func (st *connState) opViewWrite(epoch uint64, body []byte) ([]byte, error) {
	return st.opView(epoch, body, true)
}

// opView serves opViewRead / opViewWrite: view head [, data].  The
// server cuts [d0, d1) of the registered pattern at its stripe's units
// in one pass (eachUnit) and viewMove moves the bytes it owns against its
// local backend in data order: no run is enumerated unless its window
// turns out not to be page-dense.  A write under an epoch moves nothing:
// its runs are gathered for the journal, and staged once the cut has
// shown the payload to be the stripe's share exactly.  A read's reply
// grows as the cut finds the stripe's bytes, to no more than they are.
func (st *connState) opView(epoch uint64, body []byte, write bool) ([]byte, error) {
	srv := st.srv
	h, d0, d1, payload, err := srv.lim.getViewHead(body)
	if err != nil {
		return nil, err
	}
	v, ok := st.views[h]
	if !ok {
		atomic.AddInt64(&srv.stats.StaleHandles, 1)
		srv.cfg.Tracer.Instant(trace.PhaseServerViewStale, int64(h), 0, "")
		return nil, fmt.Errorf("view handle %d: %w", h, errStale)
	}
	m := viewMove{st: st, v: v, write: write, stage: epoch != 0, stream: payload, units: st.units[:0]}
	ph := trace.PhaseServerViewWrite
	switch {
	case !write:
		m.stream, ph = st.resp[:0], trace.PhaseServerViewRead
	case epoch != 0:
		ph = trace.PhaseServerStage
	}
	var total int64
	sp := srv.cfg.Tracer.BeginIO(ph, d0, 0)
	defer func() { sp.EndBytes(total) }()

	st.segs = st.segs[:0]
	m.cur.Reset(v.t, v.prog)
	err = eachUnit(v.t, v.disp, srv.cfg.Geom, srv.cfg.Index, d0, d1, m.addUnit)
	if err == nil {
		err = m.flush()
	}
	st.units, total = m.units, m.pos
	if !write {
		st.resp = m.stream
	}
	if err != nil {
		return nil, err
	}
	if !write {
		atomic.AddInt64(&srv.stats.ViewReads, 1)
		atomic.AddInt64(&srv.stats.BytesRead, total)
		return st.resp, nil
	}
	if total != int64(len(payload)) {
		return nil, fmt.Errorf("%w: view write carries %d bytes, stripe owns %d of [%d,%d)", errBadRequest, len(payload), total, d0, d1)
	}
	if epoch != 0 {
		return nil, st.stage(epoch, total)
	}
	atomic.AddInt64(&srv.stats.ViewWrites, 1)
	atomic.AddInt64(&srv.stats.BytesWritten, total)
	return nil, nil
}

// grow returns buf extended to n bytes, reallocating only when the
// capacity is short.
func grow(buf []byte, n int64) []byte {
	if int64(cap(buf)) >= n {
		return buf[:n]
	}
	return make([]byte, n)
}
