package transport

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pool"
	"repro/internal/trace"
)

// TCP transport: one stream per rank pair, framed messages, a rank-0
// rendezvous that distributes the address book.
//
// Connection topology: every rank binds a listener.  Rank 0's listener
// is the rendezvous — every other rank dials it, sends a hello frame
// carrying its own listen address, and receives the completed address
// book back; that rendezvous connection then serves as the 0↔r pair
// link.  For the remaining pairs, the higher rank dials the lower
// rank's listed address (so each pair has exactly one stream), sends a
// hello to identify itself, and both sides attach reader/writer
// goroutines.  Once every link exists the listeners close.
//
// Each link has a writer goroutine with an outbound frame queue: Send
// enqueues and returns (buffered semantics, like the in-process
// world), and the writer drains the whole queue into one buffered
// flush — write coalescing: n queued frames cost one syscall batch,
// visible as FramesSent/Flushes in WireStats.  Write and handshake
// deadlines come from the stall watchdog via SetDeadline; a peer that
// stops draining its socket fails the endpoint instead of wedging it
// forever.

// TCPConfig parameterizes one rank's TCP endpoint.
type TCPConfig struct {
	Rank, Size int
	// Rendezvous is rank 0's well-known address (host:port).  Rank 0
	// binds it (unless Listener is set); other ranks dial it.
	Rendezvous string
	// Listener, when non-nil, is a pre-bound listening socket to use
	// instead of binding Rendezvous or listenAddr — the launcher passes
	// rank 0 its rendezvous socket this way (no bind race), and tests
	// inject pre-bound ephemeral listeners.
	Listener net.Listener
	// Trace, when non-nil, records wire.send / wire.recv spans on this
	// rank's wire track.
	Trace *trace.Collector
	// Pool supplies inbound payload buffers and receives outbound
	// payloads back after they hit the socket (SendNoCopy transfers
	// ownership of the payload to the transport; the reader's delivered
	// payloads are owned by the receiver, which may Put them to any
	// pool).  Nil selects pool.Global.
	Pool *pool.Pool
}

const (
	defaultHandshakeTimeout = 30 * time.Second
	// defaultWriteBuf is the target size of one coalesced vectored
	// write: a drained queue larger than this is split into batches of
	// about this size.
	defaultWriteBuf = 256 << 10
	readBufSize     = 64 << 10
	maxCtrlFrame    = 64 << 10
	// listenAddr is the address non-zero ranks bind for inbound pair
	// links.
	listenAddr = "127.0.0.1:0"
)

// TCP is one rank's endpoint of a TCP fabric.
type TCP struct {
	cfg TCPConfig
	tr  *trace.Tracer
	ib  *inbox

	ln    net.Listener
	links []*link // by peer rank; nil for self

	mu       sync.Mutex
	closed   bool
	quiesced atomic.Bool
	deadline atomic.Int64 // write/handshake deadline, ns

	framesSent, framesRecv atomic.Int64
	bytesSent, bytesRecv   atomic.Int64
	flushes                atomic.Int64
}

// NewTCP creates an unconnected endpoint; Listen then Dial bring it up.
func NewTCP(cfg TCPConfig) *TCP {
	if cfg.Pool == nil {
		cfg.Pool = pool.Global
	}
	return &TCP{
		cfg:   cfg,
		tr:    cfg.Trace.Tracer(cfg.Rank),
		ib:    newInbox(),
		links: make([]*link, cfg.Size),
	}
}

// Rank implements Transport.
func (t *TCP) Rank() int { return t.cfg.Rank }

// Size implements Transport.
func (t *TCP) Size() int { return t.cfg.Size }

// SetDeadline installs a positive d as the bound on every link write (per
// flush) and on the whole rendezvous handshake — the seam internal/mpi
// uses to wire the stall watchdog's timeout to the wire.  Until then no
// write has a deadline and the handshake has a default one.
func (t *TCP) SetDeadline(d time.Duration) {
	if d > 0 {
		t.deadline.Store(int64(d))
	}
}

func (t *TCP) deadlineDur() time.Duration { return time.Duration(t.deadline.Load()) }

func (t *TCP) handshakeDeadline() time.Time {
	d := t.deadlineDur()
	if d <= 0 {
		d = defaultHandshakeTimeout
	}
	return time.Now().Add(d)
}

// Listen implements Transport: bind this rank's listening socket.
func (t *TCP) Listen() error {
	if t.cfg.Size < 1 || t.cfg.Rank < 0 || t.cfg.Rank >= t.cfg.Size {
		return fmt.Errorf("transport: rank %d of world size %d", t.cfg.Rank, t.cfg.Size)
	}
	if t.cfg.Listener != nil {
		t.ln = t.cfg.Listener
		return nil
	}
	addr := listenAddr
	if t.cfg.Rank == 0 && t.cfg.Rendezvous != "" {
		addr = t.cfg.Rendezvous
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t.ln = ln
	return nil
}

// Dial implements Transport: the rendezvous handshake plus the pairwise
// links.  On return every peer is reachable and the listener is closed.
func (t *TCP) Dial() error {
	if t.ln == nil {
		if err := t.Listen(); err != nil {
			return err
		}
	}
	hs := t.handshakeDeadline()
	var err error
	if t.cfg.Rank == 0 {
		err = t.dialAsRoot(hs)
	} else {
		err = t.dialAsPeer(hs)
	}
	// The listener goes before any link starts: a link that fails closes
	// the endpoint, which must not find it half gone.
	t.ln.Close()
	t.ln = nil
	if err != nil {
		t.closeWith(fmt.Errorf("transport: rendezvous failed on rank %d: %w", t.cfg.Rank, err))
		return err
	}
	for _, l := range t.links {
		if l != nil {
			l.start()
		}
	}
	return nil
}

// dialAsRoot runs rank 0's side: collect hellos, distribute the book.
func (t *TCP) dialAsRoot(hs time.Time) error {
	addrs := make([]string, t.cfg.Size)
	addrs[0] = t.ln.Addr().String()
	conns := make([]net.Conn, t.cfg.Size)
	if tl, ok := t.ln.(*net.TCPListener); ok {
		tl.SetDeadline(hs)
	}
	for got := 1; got < t.cfg.Size; {
		conn, err := t.ln.Accept()
		if err != nil {
			return fmt.Errorf("waiting for %d more ranks: %w", t.cfg.Size-got, err)
		}
		conn.SetDeadline(hs)
		src, tag, addr, err := readFrame(conn, maxCtrlFrame)
		if err != nil || tag != tagHello || src < 1 || src >= t.cfg.Size || conns[src] != nil {
			conn.Close() // stray or duplicate connection; the real rank will retry or fail itself
			continue
		}
		conns[src] = conn
		addrs[src] = string(addr)
		got++
	}
	book := encodeBook(addrs)
	for r := 1; r < t.cfg.Size; r++ {
		if _, err := conns[r].Write(appendFrame(nil, 0, tagBook, book)); err != nil {
			return fmt.Errorf("sending address book to rank %d: %w", r, err)
		}
		conns[r].SetDeadline(time.Time{})
		t.links[r] = newLink(t, r, conns[r])
	}
	return nil
}

// dialAsPeer runs every other rank's side: register at the rendezvous,
// receive the book, dial lower ranks, accept higher ranks.
func (t *TCP) dialAsPeer(hs time.Time) error {
	conn, err := dialRetry(t.cfg.Rendezvous, hs)
	if err != nil {
		return fmt.Errorf("dialing rendezvous %s: %w", t.cfg.Rendezvous, err)
	}
	conn.SetDeadline(hs)
	if _, err := conn.Write(appendFrame(nil, t.cfg.Rank, tagHello, []byte(t.ln.Addr().String()))); err != nil {
		return fmt.Errorf("hello to rendezvous: %w", err)
	}
	src, tag, payload, err := readFrame(conn, maxCtrlFrame)
	if err != nil || src != 0 || tag != tagBook {
		return fmt.Errorf("reading address book (src=%d tag=%d): %w", src, tag, err)
	}
	book, err := decodeBook(payload, t.cfg.Size)
	if err != nil {
		return err
	}
	conn.SetDeadline(time.Time{})
	t.links[0] = newLink(t, 0, conn)

	// Dial every lower rank (the higher rank of a pair dials).
	for j := 1; j < t.cfg.Rank; j++ {
		c, err := dialRetry(book[j], hs)
		if err != nil {
			return fmt.Errorf("dialing rank %d at %s: %w", j, book[j], err)
		}
		c.SetDeadline(hs)
		if _, err := c.Write(appendFrame(nil, t.cfg.Rank, tagHello, nil)); err != nil {
			return fmt.Errorf("hello to rank %d: %w", j, err)
		}
		c.SetDeadline(time.Time{})
		t.links[j] = newLink(t, j, c)
	}

	// Accept every higher rank.
	if tl, ok := t.ln.(*net.TCPListener); ok {
		tl.SetDeadline(hs)
	}
	for need := t.cfg.Size - t.cfg.Rank - 1; need > 0; {
		c, err := t.ln.Accept()
		if err != nil {
			return fmt.Errorf("waiting for %d higher ranks: %w", need, err)
		}
		c.SetDeadline(hs)
		src, tag, _, err := readFrame(c, maxCtrlFrame)
		if err != nil || tag != tagHello || src <= t.cfg.Rank || src >= t.cfg.Size || t.links[src] != nil {
			c.Close()
			continue
		}
		c.SetDeadline(time.Time{})
		t.links[src] = newLink(t, src, c)
		need--
	}
	return nil
}

// dialRetry dials addr until it succeeds or the handshake deadline
// passes; peers race the rendezvous bind, so early refusals retry.
func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	for {
		timeout := time.Until(deadline)
		if timeout <= 0 {
			return nil, fmt.Errorf("handshake deadline exceeded dialing %s", addr)
		}
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			return conn, nil
		}
		if time.Until(deadline) < 10*time.Millisecond {
			return nil, err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Send implements Transport.  The staging copy comes from the endpoint
// pool and is recycled after it hits the socket.
func (t *TCP) Send(dst, tag int, data []byte) error {
	if err := checkSend(dst, tag, t.cfg.Size, false, true); err != nil {
		return err
	}
	buf := t.cfg.Pool.Get(len(data))
	copy(buf, data)
	return t.enqueue(dst, outFrame{tag: tag, data: buf})
}

// SendNoCopy implements Transport.
func (t *TCP) SendNoCopy(dst, tag int, data []byte) error {
	if err := checkSend(dst, tag, t.cfg.Size, false, true); err != nil {
		return err
	}
	return t.enqueue(dst, outFrame{tag: tag, data: data})
}

// SendRef implements Transport: a reference cannot cross a wire, and this
// fabric refuses it whatever dst is.
func (t *TCP) SendRef(dst, tag int, _ any) error {
	return checkSend(dst, tag, t.cfg.Size, true, true)
}

func (t *TCP) enqueue(dst int, fr outFrame) error {
	if dst == t.cfg.Rank {
		// Self-sends never touch the wire (an IOP that is also an AP).
		t.ib.put(Message{Src: t.cfg.Rank, Tag: fr.tag, Data: fr.data})
		return nil
	}
	l := t.links[dst]
	if l == nil {
		return fmt.Errorf("transport: no link to rank %d (endpoint not dialed)", dst)
	}
	return l.enqueue(fr)
}

// Recv implements Transport.
func (t *TCP) Recv(src, tag int) (Message, error) {
	return t.ib.take(src, tag)
}

// DrainTag implements Transport.
func (t *TCP) DrainTag(tag int, put func([]byte)) (int, int64) {
	return t.ib.drain(tag, put)
}

// Flush implements Transport: wait for every link's queue to hit the
// socket, and report the first link's error.  A closed link does not end
// the wait: at shutdown a peer that has left closes its link while this
// endpoint still has frames queued for another.
func (t *TCP) Flush() error {
	var first error
	for _, l := range t.links {
		if l == nil {
			continue
		}
		if err := l.flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Quiesce implements Transport.
func (t *TCP) Quiesce() { t.quiesced.Store(true) }

// Close implements Transport.
func (t *TCP) Close() error { return t.closeWith(nil) }

// closeWith tears the endpoint down; the first cause wins and is what
// blocked Recvs report (nil means a plain Close → ErrClosed).
func (t *TCP) closeWith(cause error) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	t.ib.close(cause)
	if t.ln != nil {
		t.ln.Close()
	}
	for _, l := range t.links {
		if l != nil {
			l.close()
		}
	}
	return nil
}

func (t *TCP) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// linkFailed handles a reader/writer error on one link: fatal for the
// whole endpoint unless it is quiescing (peers closing at shutdown) or
// already closed.
func (t *TCP) linkFailed(l *link, err error) {
	if t.quiesced.Load() || t.isClosed() {
		l.close()
		return
	}
	t.closeWith(linkLost(l.peer, err))
}

// linkLost is the error of the link to peer, lost for the reason err.
func linkLost(peer int, err error) error {
	return fmt.Errorf("transport: link to rank %d lost: %v", peer, err)
}

// Stats implements Transport.
func (t *TCP) Stats() WireStats {
	return WireStats{
		FramesSent: t.framesSent.Load(),
		FramesRecv: t.framesRecv.Load(),
		BytesSent:  t.bytesSent.Load(),
		BytesRecv:  t.bytesRecv.Load(),
		Flushes:    t.flushes.Load(),
	}
}

// outFrame is one queued outbound message: an owned payload, recycled
// into the pool once written.
type outFrame struct {
	tag  int
	data []byte
}

// link is one pair connection with its writer queue.
type link struct {
	t    *TCP
	peer int
	conn net.Conn

	mu      sync.Mutex
	cond    *sync.Cond
	out     []outFrame
	writing bool
	closed  bool
	err     error
}

func newLink(t *TCP, peer int, conn net.Conn) *link {
	l := &link{t: t, peer: peer, conn: conn}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *link) start() {
	go l.writer()
	go l.reader()
}

func (l *link) enqueue(fr outFrame) error {
	l.mu.Lock()
	if l.closed {
		err := l.err
		l.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return err
	}
	l.out = append(l.out, fr)
	l.mu.Unlock()
	l.cond.Signal()
	return nil
}

// flush blocks until the queue is drained and flushed to the socket —
// or the link is closed — and the writer is out of its write.
func (l *link) flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.out) > 0 && !l.closed || l.writing {
		l.cond.Wait()
	}
	return l.err
}

func (l *link) close() {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		if l.err == nil {
			l.err = ErrClosed
		}
	}
	l.mu.Unlock()
	l.cond.Broadcast()
	l.conn.Close()
}

// failWith records err as the link's failure and escalates it.
func (l *link) failWith(err error) {
	l.mu.Lock()
	if !l.closed && l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
	l.cond.Broadcast()
	l.t.linkFailed(l, err)
}

// writer drains the outbound queue: every wake-up takes the whole
// queue and writes it in defaultWriteBuf-sized vectored batches — each batch
// is one net.Buffers.WriteTo, which on a *net.TCPConn is writev: n
// queued frames (headers and payloads alike) cost one syscall, with no
// copy into an intermediate coalescing buffer.  The queue arrays
// double-buffer (the drained array is handed back to enqueue once its
// payloads are recycled), and the header slab and iovec scratch persist
// across wake-ups, so the steady-state writer allocates nothing.
func (l *link) writer() {
	var (
		bufs  net.Buffers // iovec scratch: hdr, payload, hdr, payload, ...
		hdrs  []byte      // slab backing the batch's frame headers
		spare []outFrame  // drained queue array, handed back to enqueue
	)
	for {
		l.mu.Lock()
		for len(l.out) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.out) == 0 {
			l.mu.Unlock()
			return // closed and drained
		}
		batch := l.out
		l.out, spare = spare, nil
		l.writing = true
		l.mu.Unlock()

		if d := l.t.deadlineDur(); d > 0 {
			l.conn.SetWriteDeadline(time.Now().Add(d))
		}
		if need := len(batch) * FrameHeaderSize; cap(hdrs) < need {
			hdrs = make([]byte, need)
		}
		var werr error
		var total int64
		sp := l.t.tr.BeginWire(trace.PhaseWireSend, 0)
		l.t.flushes.Add(1) // before the write, for the reason given at bytesSent below
		for done := 0; done < len(batch) && werr == nil; {
			bufs = bufs[:0]
			var group int64
			for ; done < len(batch); done++ {
				fr := &batch[done]
				n := int64(len(fr.data))
				if len(bufs) > 0 && group+FrameHeaderSize+n > defaultWriteBuf {
					break
				}
				h := hdrs[done*FrameHeaderSize : (done+1)*FrameHeaderSize]
				putFrameHeader(h, l.t.cfg.Rank, fr.tag, int(n))
				bufs = append(bufs, h)
				if n > 0 {
					bufs = append(bufs, fr.data)
				}
				group += FrameHeaderSize + n
				l.t.framesSent.Add(1)
			}
			// Count the group, like its frames above, before it can reach
			// the peer: once a byte is on the socket the peer may count
			// it, deliver it and let the world finish, and a snapshot
			// taken then must already hold the sender's side of it.  A
			// failed write takes back what did not leave.
			l.t.bytesSent.Add(group)
			// WriteTo consumes a shifting view; keep bufs' own header
			// intact and clear the payload refs afterwards.
			view := bufs
			n, err := view.WriteTo(l.conn)
			if n != group {
				l.t.bytesSent.Add(n - group)
			}
			total += n
			werr = err
			for i := range bufs {
				bufs[i] = nil
			}
		}
		sp.EndBytes(total)

		if werr == nil {
			// The payloads hit the socket.  This endpoint owned them
			// (SendNoCopy is an ownership transfer): recycle them.
			for i := range batch {
				l.t.cfg.Pool.Put(batch[i].data)
				batch[i] = outFrame{}
			}
			spare = batch[:0]
		}

		l.mu.Lock()
		l.writing = false
		l.mu.Unlock()
		l.cond.Broadcast()
		if werr != nil {
			l.failWith(werr)
			return
		}
	}
}

// reader delivers the link's inbound frames to the inbox until the link
// fails, then records the peer as gone: every frame it read is queued by
// then, so a Recv naming the peer that finds none fails instead of
// waiting for one no link will deliver — also on a quiesced endpoint,
// where the failure closes only this link.
func (l *link) reader() {
	err := l.read()
	l.t.ib.lose(l.peer, linkLost(l.peer, err))
	l.failWith(err)
}

// read parses inbound frames and queues each as a pooled payload, until
// a read fails.  The span covers the payload transfer (header → full
// frame), not the idle wait between frames.
func (l *link) read() error {
	cr := &countingReader{r: l.conn, n: &l.t.bytesRecv}
	br := bufio.NewReaderSize(cr, readBufSize)
	var hdr [FrameHeaderSize]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return err
		}
		src, tag, n, err := parseFrameHeader(hdr[:], DefaultMaxFrame)
		if err != nil {
			return err
		}
		if src != l.peer || tag < 0 {
			return fmt.Errorf("%w: envelope src=%d tag=%d on link to rank %d", ErrFrame, src, tag, l.peer)
		}
		sp := l.t.tr.BeginWire(trace.PhaseWireRecv, 0)
		// Ownership of the payload passes to whoever Recvs the message;
		// core returns exchange chunks to its pool after unpacking.
		data := l.t.cfg.Pool.Get(n)
		if err := readPayload(br, data); err != nil {
			return err
		}
		sp.EndBytes(FrameHeaderSize + int64(n))
		l.t.framesRecv.Add(1)
		l.t.ib.put(Message{Src: src, Tag: tag, Data: data})
	}
}

// countingReader counts bytes as they cross the socket, feeding both
// WireStats and the watchdog's progress signal.  (The writer counts a
// group as it commits it to writev.)
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// NewLocalTCPWorld binds a fresh 127.0.0.1 rendezvous and returns size
// configured endpoints for a single-process TCP world — the transport
// matrix tests and benchmarks run real sockets without forking.  Each
// endpoint still needs Listen+Dial (internal/mpi's runners do both).
func NewLocalTCPWorld(size int, base TCPConfig) ([]Transport, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	eps := make([]Transport, size)
	for r := range eps {
		cfg := base
		cfg.Rank, cfg.Size, cfg.Rendezvous = r, size, ln.Addr().String()
		if r == 0 {
			cfg.Listener = ln
		}
		eps[r] = NewTCP(cfg)
	}
	return eps, nil
}
