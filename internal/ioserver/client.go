package ioserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pool"
	"repro/internal/storage"
	"repro/internal/transport"
)

// framePool is where the tier's pooled frames come from and go back to:
// the client's write requests, which its stage log keeps inside an
// epoch, and the server's staged-mutation payloads, which their epoch
// keeps until it is applied or dropped (DESIGN §9).  Tests swap in a
// checked pool to hold every frame to exactly one Put.
var framePool = pool.Global

// View is the client-side record of one registrable fileview: the
// displacement plus the datatype.Encode'd filetype tree.  One View is
// shared across all servers of an aggregate; each Client lazily
// registers it on its own connection and caches the returned handle.
type View struct {
	Disp int64
	Enc  []byte
}

// Client is one rank's connection to one I/O server, presented as a
// storage.Backend over that server's local stripe (offsets are local;
// the Striped aggregate does the global math).  A broken connection is
// redialed on the next operation — the failed operation itself reports
// a transient error, so a storage.Resilient wrapper above rides it out.
// Safe for concurrent use; round-trips serialize on one mutex.
type Client struct {
	addr      string
	maxFrame  int
	timeout   time.Duration
	wireChaos *transport.WireChaosConfig

	mu       sync.Mutex
	fc       *transport.FrameConn
	seq      int
	views    map[*View]uint64 // handle per registered view, this connection
	rounds   atomic.Int64     // request round-trips issued
	lastSize atomic.Int64     // last size observed from the server, Size's fault fallback
	sizeErr  error            // Size's deferred failure, reported by the next read or Sync

	// Epoch staging state.  While epoch != 0, writes go out as staged
	// ops and are logged in stage; a reconnect replays the log before
	// the next request, so a server that bounced mid-epoch (discarding
	// its uncommitted staged state on recovery) is transparently
	// re-staged.  The log's length and bytes mirror the server's
	// per-connection tally, so SealEpoch can detect a bounce that the
	// replay machinery missed.
	epoch      uint64
	stage      []request
	sealedInc  int64  // server incarnation observed at last seal
	lastCommit uint64 // most recently committed epoch id
	fresh      bool   // connection newly dialed: replay before next op
	replaying  bool

	// Scratch of the read requests, reused under mu: the request, and the
	// destination its response is read into — ReadAt's flag byte, then
	// the caller's buffers.
	req  []byte
	dst  [][]byte
	flag [1]byte
}

// request is one write or view request in its direct shape, as sendLocked
// sends it and as the stage log keeps an acknowledged staged write for
// replay.  What may differ from one send to the next — the epoch prefix,
// and the view head with this connection's handle — is encoded per send
// into the headRoom bytes buf leads with, flush against what follows, so
// the bytes of a write are copied into their request once.  A write's
// buf is a pooled frame (newRequest): the stage log owns it inside an
// epoch, and outside one it goes back to the pool once sent.
type request struct {
	op     int    // the direct op; inside an epoch its staged twin is sent
	v      *View  // view ops: the view
	d0, d1 int64  // view ops: the data range [d0, d1) of it
	n      int    // writes: the data bytes buf ends with
	buf    []byte // headRoom spare bytes, then the request behind the per-send head
}

// headRoom holds an epoch prefix and a view head.
const headRoom = 4 * binary.MaxVarintLen64

// newRequest is the request builder: a pooled frame with room for the
// head and then n bytes, of length headRoom, for the request's fields
// and data to be appended to.
func newRequest(n int) []byte { return framePool.Get(headRoom + n)[:headRoom] }

// ClientOptions tune a client; the zero value is ready to use.
type ClientOptions struct {
	// MaxFrame bounds frame payloads (<= 0 selects the transport
	// default); it must be at least the server's to read large
	// responses.
	MaxFrame int
	// Timeout bounds each dial and each round-trip (default 30s).
	Timeout time.Duration
	// WireChaos, when enabled, wraps every dialed connection in a
	// fault-injecting transport.ChaosConn — the client side of the wire
	// only, so server responses stay canonical while requests suffer
	// drops, duplicates, header corruption, resets, and partitions.
	WireChaos *transport.WireChaosConfig
}

// NewClient builds a client for the server at addr.  The connection is
// established lazily on first use.
func NewClient(addr string, opts ClientOptions) *Client {
	if opts.MaxFrame <= 0 {
		opts.MaxFrame = transport.DefaultMaxFrame
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	return &Client{
		addr:      addr,
		maxFrame:  opts.MaxFrame,
		timeout:   opts.Timeout,
		wireChaos: opts.WireChaos,
		views:     make(map[*View]uint64),
	}
}

// Addr reports the server address this client targets.
func (c *Client) Addr() string { return c.addr }

// Rounds reports the request round-trips issued so far — the wire-cost
// metric the registered-view protocol exists to shrink.
func (c *Client) Rounds() int64 { return c.rounds.Load() }

// Close tears down the connection; a later operation would redial.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fc == nil {
		return nil
	}
	err := c.fc.Close()
	c.dropLocked()
	return err
}

// dropLocked discards the connection state.  View handles are
// per-connection server state, so they go too; view operations
// re-register lazily.
func (c *Client) dropLocked() {
	if c.fc != nil {
		c.fc.Close()
		c.fc = nil
	}
	c.views = make(map[*View]uint64)
}

// connectLocked ensures a live connection.  A fresh dial arms the
// stage-log replay: the server behind this address may be a restarted
// instance whose recovery discarded our uncommitted epoch.
func (c *Client) connectLocked() error {
	if c.fc != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return fmt.Errorf("ioserver %s: dial: %v: %w", c.addr, err, storage.ErrTransient)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	var wc net.Conn = conn
	if c.wireChaos.Enabled() {
		wc = transport.NewChaosConn(conn, c.wireChaos, "client-"+c.addr)
	}
	c.fc = transport.NewFrameConn(wc, c.maxFrame)
	c.fresh = true
	return nil
}

// roundTripLocked performs one request/response exchange and returns
// the length of the response's payload.  A success response is read
// straight into dst, filling its buffers in order; one longer than dst
// holds fails ErrPermanent and drops the connection, leaving dst
// untouched.  With dst nil the payload comes back in a fresh buffer,
// resp, as an opErr response's does, which is decoded into its class
// without touching the connection.  Network and framing failures drop
// the connection and report transient errors (reconnect-and-reissue heals
// them).
func (c *Client) roundTripLocked(op int, req []byte, dst [][]byte) (resp []byte, n int, err error) {
	if err := c.connectLocked(); err != nil {
		return nil, 0, err
	}
	if c.fresh && !c.replaying {
		c.fresh = false
		if len(c.stage) > 0 {
			c.replaying = true
			err := c.replayLocked()
			c.replaying = false
			if err != nil {
				return nil, 0, err
			}
		}
	}
	c.seq++
	seq := c.seq
	c.rounds.Add(1)
	c.fc.SetDeadline(time.Now().Add(c.timeout))
	if err := c.fc.WriteFrame(seq, op, req); err != nil {
		c.dropLocked()
		return nil, 0, fmt.Errorf("ioserver %s: send: %v: %w", c.addr, err, storage.ErrTransient)
	}
	rseq, tag, n, err := c.fc.ReadHeader()
	if err != nil {
		if err == io.EOF {
			err = errors.New("connection closed by server")
		}
		return nil, 0, c.recvFailedLocked(err)
	}
	if rseq != seq || (tag != op && tag != opErr) {
		// Desynchronized stream: no way to re-associate responses.
		c.dropLocked()
		return nil, 0, fmt.Errorf("ioserver %s: response desync (seq %d/%d, tag %d/%d): %w",
			c.addr, rseq, seq, tag, op, storage.ErrTransient)
	}
	if tag == opErr || dst == nil {
		resp = make([]byte, n)
		if err := c.fc.ReadPayload(resp); err != nil {
			return nil, 0, c.recvFailedLocked(err)
		}
		if tag == opErr {
			class, msg, err := getErr(resp)
			if err != nil {
				c.dropLocked()
				return nil, 0, fmt.Errorf("ioserver %s: malformed error frame: %w", c.addr, storage.ErrTransient)
			}
			return nil, 0, unwireError(c.addr, class, msg)
		}
		return resp, n, nil
	}
	var room int
	for _, b := range dst {
		room += len(b)
	}
	if n > room {
		c.dropLocked() // the payload is left unread
		return nil, 0, fmt.Errorf("ioserver %s: %d-byte response to a request for %d: %w", c.addr, n, room, storage.ErrPermanent)
	}
	for left := n; left > 0; dst = dst[1:] {
		b := dst[0][:min(len(dst[0]), left)]
		if err := c.fc.ReadPayload(b); err != nil {
			return nil, 0, c.recvFailedLocked(err)
		}
		left -= len(b)
	}
	return nil, n, nil
}

// recvFailedLocked drops the connection after a failed receive and
// returns the transient error that reports it.
func (c *Client) recvFailedLocked(err error) error {
	c.dropLocked()
	return fmt.Errorf("ioserver %s: receive: %v: %w", c.addr, err, storage.ErrTransient)
}

func (c *Client) roundTrip(op int, req []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, _, err := c.roundTripLocked(op, req, nil)
	return resp, err
}

// readLocked issues read request c.req with its response read into
// c.dst, and then lets go of the caller's buffers in c.dst.
func (c *Client) readLocked(op int) (int, error) {
	_, n, err := c.roundTripLocked(op, c.req, c.dst)
	clear(c.dst)
	c.dst = c.dst[:0]
	return n, err
}

// ReadAt implements io.ReaderAt against the server's stripe.  The
// response, an EOF flag and the bytes read, is read into the flag and p.
func (c *Client) ReadAt(p []byte, off int64) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.takeSizeErrLocked(); err != nil {
		return 0, err
	}
	c.req = putExtent(c.req[:0], off, int64(len(p)))
	c.dst = append(c.dst, c.flag[:], p)
	n, err := c.readLocked(opRead)
	if err != nil {
		return 0, err
	}
	if n < 1 {
		return 0, fmt.Errorf("ioserver %s: empty read response: %w", c.addr, storage.ErrPermanent)
	}
	if c.flag[0] != 0 {
		return n - 1, io.EOF
	}
	return n - 1, nil
}

// sendLocked is the one send path of writes and view requests.  Inside
// an epoch a mutation goes out under its staged twin's code behind the
// epoch prefix.  A view request leads with this connection's handle,
// registered on demand: on a stale-handle response — the server evicted
// it from the per-connection LRU — the handle is dropped and the request
// reissued once with a fresh registration.
func (c *Client) sendLocked(r *request, dst [][]byte) (int, error) {
	op := r.op
	if c.epoch != 0 {
		op = stagedOp(op)
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		var room [headRoom]byte
		head := room[:0]
		if op != r.op {
			head = putEpoch(head, c.epoch)
		}
		if r.v != nil {
			h, err := c.handleLocked(r.v)
			if err != nil {
				return 0, err
			}
			head = putViewHead(head, h, r.d0, r.d1)
		}
		req := r.buf[headRoom-len(head):]
		copy(req, head)
		_, n, err := c.roundTripLocked(op, req, dst)
		if err == nil || !errors.Is(err, errStale) {
			return n, err
		}
		delete(c.views, r.v)
		lastErr = err
	}
	return 0, fmt.Errorf("ioserver %s: view handle stale after re-registration: %v: %w",
		c.addr, lastErr, storage.ErrPermanent)
}

// mutateLocked sends one write.  Inside an epoch the write is staged
// (journaled server-side, invisible to reads until commit) and, once
// acknowledged, logged for replay, the log taking r.buf; otherwise r.buf
// goes back to the pool.
func (c *Client) mutateLocked(r request) error {
	_, err := c.sendLocked(&r, nil)
	if err == nil && c.epoch != 0 {
		c.stage = append(c.stage, r)
		return nil
	}
	framePool.Put(r.buf)
	return err
}

// WriteAt implements io.WriterAt against the server's stripe.
func (c *Client) WriteAt(p []byte, off int64) (int, error) {
	buf := putV(newRequest(binary.MaxVarintLen64+len(p)), off)
	buf = append(buf, p...)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.mutateLocked(request{op: opWrite, n: len(p), buf: buf}); err != nil {
		return 0, err
	}
	return len(p), nil
}

// ReadAtv implements storage.Vectored: the batch is shipped as offset
// lists of at most MaxListRuns entries each, so n runs cost
// ceil(n/MaxListRuns) round-trips, and each response is read straight
// into the segments.
func (c *Client) ReadAtv(segs []storage.Segment) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.takeSizeErrLocked(); err != nil {
		return err
	}
	for len(segs) > 0 {
		chunk := c.clipList(segs)
		c.req = putList(c.req[:0], chunk)
		for _, s := range chunk {
			c.dst = append(c.dst, s.Buf)
		}
		n, err := c.readLocked(opReadv)
		if err != nil {
			return err
		}
		if want := totalLen(chunk); n != want {
			return fmt.Errorf("ioserver %s: vectored read returned %d of %d bytes: %w",
				c.addr, n, want, storage.ErrPermanent)
		}
		segs = segs[len(chunk):]
	}
	return nil
}

// WriteAtv implements storage.Vectored, chunked like ReadAtv.
func (c *Client) WriteAtv(segs []storage.Segment) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(segs) > 0 {
		chunk := c.clipList(segs)
		n := totalLen(chunk)
		buf := putList(newRequest(binary.MaxVarintLen64*(2*len(chunk)+1)+n), chunk)
		for _, s := range chunk {
			buf = append(buf, s.Buf...)
		}
		if err := c.mutateLocked(request{op: opWritev, n: n, buf: buf}); err != nil {
			return err
		}
		segs = segs[len(chunk):]
	}
	return nil
}

// clipList takes the longest prefix of segs that fits one request: at
// most MaxListRuns entries and under the frame payload limit.
func (c *Client) clipList(segs []storage.Segment) []storage.Segment {
	n := min(len(segs), MaxListRuns)
	var bytes int
	for i := 0; i < n; i++ {
		bytes += len(segs[i].Buf)
		if i > 0 && bytes+16*(i+1) > c.maxFrame {
			return segs[:i]
		}
	}
	return segs[:n]
}

func totalLen(segs []storage.Segment) int {
	var n int
	for _, s := range segs {
		n += len(s.Buf)
	}
	return n
}

// sizeAttempts bounds Size's internal retry loop.
const sizeAttempts = 8

// Size reports the server stripe's local size.  Backend.Size cannot
// report an error, and callers clamp reads against it — so a transient
// wire fault must not masquerade as a zero-length stripe, or every read
// of the file silently truncates to zeros.  Transients are retried
// here; if the budget runs out, Size answers the last size it observed
// and the failure, naming Size, is kept for the next ReadAt, ReadAtv or
// Sync to report, as storage.File does with its Stat failures.
func (c *Client) Size() int64 {
	for attempt := 0; ; attempt++ {
		resp, err := c.roundTrip(opSize, nil)
		if err != nil {
			if attempt+1 < sizeAttempts && storage.IsTransient(err) {
				time.Sleep(time.Duration(attempt+1) * time.Millisecond)
				continue
			}
			return c.sizeFailed(err)
		}
		n, _, err := getV(resp)
		if err != nil || n < 0 {
			return c.sizeFailed(fmt.Errorf("ioserver %s: malformed size response: %w", c.addr, storage.ErrPermanent))
		}
		c.lastSize.Store(n)
		return n
	}
}

// sizeFailed records Size's failure err, unless an earlier one is still
// unreported, and returns the last size observed.
func (c *Client) sizeFailed(err error) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sizeErr == nil {
		c.sizeErr = fmt.Errorf("ioserver: deferred Size failure: %w", err)
	}
	return c.lastSize.Load()
}

// takeSizeErrLocked returns and clears Size's deferred failure, if any.
func (c *Client) takeSizeErrLocked() error {
	err := c.sizeErr
	c.sizeErr = nil
	return err
}

// Truncate sizes the server's stripe.
func (c *Client) Truncate(n int64) error {
	_, err := c.roundTrip(opTruncate, putV(nil, n))
	if err == nil {
		c.lastSize.Store(n)
	}
	return err
}

// Sync flushes the server's stripe to its stable store.
func (c *Client) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.takeSizeErrLocked(); err != nil {
		return err
	}
	_, _, err := c.roundTripLocked(opSync, nil, nil)
	return err
}

// ServerStats fetches the server's request counters.
func (c *Client) ServerStats() (ServerStats, error) {
	resp, err := c.roundTrip(opStats, nil)
	if err != nil {
		return ServerStats{}, err
	}
	return decodeStats(resp)
}

// handleLocked returns the server's handle for v, registering it on
// this connection if needed.
func (c *Client) handleLocked(v *View) (uint64, error) {
	if h, ok := c.views[v]; ok {
		return h, nil
	}
	req := putV(make([]byte, 0, 16+len(v.Enc)), v.Disp)
	req = append(req, v.Enc...)
	resp, _, err := c.roundTripLocked(opRegister, req, nil)
	if err != nil {
		return 0, err
	}
	h, _, err := getV(resp)
	if err != nil || h < 0 {
		return 0, fmt.Errorf("ioserver %s: malformed register response: %w", c.addr, storage.ErrPermanent)
	}
	c.views[v] = uint64(h)
	return uint64(h), nil
}

// ViewReadRange reads this server's bytes of data range [d0, d1) of the
// view, packed in data order, into dst, filling its buffers in order,
// and returns how many there were; a share longer than dst fails
// ErrPermanent.
func (c *Client) ViewReadRange(v *View, d0, d1 int64, dst [][]byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.req = grow(c.req, headRoom)
	return c.sendLocked(&request{op: opViewRead, v: v, d0: d0, d1: d1, buf: c.req}, dst)
}

// ViewWriteRange stores n bytes as this server's bytes of data range
// [d0, d1) of the view, packed in data order.  gather writes them into
// the request, before the connection is taken, so that they are copied
// once, from the caller's memory into the frame.
func (c *Client) ViewWriteRange(v *View, d0, d1 int64, n int, gather func(dst []byte)) error {
	buf := newRequest(n)[:headRoom+n]
	gather(buf[headRoom:])
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mutateLocked(request{op: opViewWrite, v: v, d0: d0, d1: d1, n: n, buf: buf})
}

// replayLocked re-stages the epoch's logged writes on a fresh
// connection — the healing path after a server bounce (recovery threw
// the uncommitted epoch away) or a dropped connection (the server kept
// it; re-staging is idempotent: same offsets, same bytes, and the fresh
// connection's tally restarts with the replay).  A view write finds its
// handle on the new connection as any view request does.
func (c *Client) replayLocked() error {
	for i := range c.stage {
		if _, err := c.sendLocked(&c.stage[i], nil); err != nil {
			return err
		}
	}
	return nil
}

// BeginEpoch enters staging mode for epoch id.  Local bookkeeping only
// (nothing crosses the wire until the first staged write), idempotent
// for the active id so every rank of an in-process world sharing this
// client may call it.
func (c *Client) BeginEpoch(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch != id {
		c.endEpochLocked()
		c.epoch = id
	}
}

// SealEpoch verifies that everything this client staged under id is
// present on the server: the server echoes its incarnation and this
// connection's staging tally, which must match the local log.  A
// mismatch means staged state was silently lost (typically a server
// bounce whose redial replayed into a different tally than the log, or
// a wire fault that double-staged) — the connection is dropped and the
// error is transient, so a retry reconnects and replays the log, after
// which the tally matches.
func (c *Client) SealEpoch(id uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, _, err := c.roundTripLocked(opEpochSeal, putEpoch(nil, id), nil)
	if err != nil {
		return err
	}
	var inc, count, bytes int64
	if _, err := getVs(resp, &inc, &count, &bytes); err != nil {
		return fmt.Errorf("ioserver %s: malformed seal response: %w", c.addr, storage.ErrPermanent)
	}
	var logged int64
	for i := range c.stage {
		logged += int64(c.stage[i].n)
	}
	if count != int64(len(c.stage)) || bytes != logged {
		c.dropLocked()
		return fmt.Errorf("ioserver %s: seal tally mismatch for epoch %d (server holds %d reqs/%dB, log says %d/%dB): %w",
			c.addr, id, count, bytes, len(c.stage), logged, storage.ErrTransient)
	}
	c.sealedInc = inc
	return nil
}

// CommitEpoch asks the server to apply epoch id, naming the incarnation
// observed at seal time: a server that restarted in between answers
// storage.ErrEpochRetry (its recovery discarded the staged state), and
// the caller must re-seal before re-committing.
//
// Idempotent for the last committed id: a striped commit fans out over
// several clients, and when one of them fails transiently the driver
// retries the whole fan-out — clients that already committed must
// acknowledge the repeat rather than reject it as an unsealed commit.
func (c *Client) CommitEpoch(id uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sealedInc == 0 {
		if id == c.lastCommit && id != 0 {
			return nil // duplicate commit after success (retried fan-out)
		}
		return fmt.Errorf("ioserver %s: commit of epoch %d without a seal: %w", c.addr, id, storage.ErrPermanent)
	}
	if _, _, err := c.roundTripLocked(opEpochCommit, putV(putEpoch(nil, id), c.sealedInc), nil); err != nil {
		return err
	}
	c.lastCommit = id
	c.endEpochLocked()
	return nil
}

// AbortEpoch discards epoch id's staged state, server-side (best
// effort) and local.
func (c *Client) AbortEpoch(id uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Don't let the replay machinery re-stage the epoch we're discarding.
	c.dropStageLocked()
	_, _, err := c.roundTripLocked(opEpochAbort, putEpoch(nil, id), nil)
	c.endEpochLocked()
	return err
}

// EndEpoch leaves staging mode without touching staged state — the
// non-committing participants' counterpart of CommitEpoch.  Idempotent.
func (c *Client) EndEpoch(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch == id {
		c.endEpochLocked()
	}
}

func (c *Client) endEpochLocked() {
	c.epoch = 0
	c.dropStageLocked()
	c.sealedInc = 0
}

// dropStageLocked empties the stage log, returning its requests' frames
// to the pool.
func (c *Client) dropStageLocked() {
	for i := range c.stage {
		framePool.Put(c.stage[i].buf)
	}
	clear(c.stage)
	c.stage = c.stage[:0]
}

// RegisterEager registers v now (priming the server's cache and
// validating the encoding server-side) instead of on first use.
func (c *Client) RegisterEager(v *View) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.handleLocked(v)
	return err
}
