// Package transport is the pluggable rank-to-rank byte fabric under
// internal/mpi: every rank of a world holds one Transport endpoint and
// moves tagged byte payloads through it.  The message-matching layer
// (source/tag wildcards, per-pair FIFO, collective ordering) lives in
// the endpoint's inbox — extracted verbatim from internal/mpi's
// original queue machinery — so the two implementations differ only in
// how bytes travel between endpoints:
//
//   - Loopback: the seed's in-process world.  Send delivers straight
//     into the destination rank's inbox with one function call; no
//     goroutines, no framing, no wire bytes.  Zero behavior change
//     from the original shared-memory mailboxes.
//
//   - TCP: ranks as separate OS processes (or goroutines, for tests)
//     connected by one TCP stream per rank pair, carrying
//     length-prefixed (length, src, tag, payload) frames.  A rank-0
//     rendezvous distributes the address book, per-link writer
//     goroutines coalesce queued frames into single flushes, and
//     write/handshake deadlines bound a wedged peer.
//
// Lifecycle: Listen (bind the endpoint) → Dial (connect the fabric) →
// Send/Recv/DrainTag → Flush/Quiesce (graceful shutdown) → Close.
package transport

import "fmt"

// Wildcards for Recv matching, shared with internal/mpi.
const (
	AnySource = -1
	AnyTag    = -1
)

// Message is one delivered payload with its envelope.
type Message struct {
	Src, Tag int
	Data     []byte
	// Ref is the payload of a reference message (SendRef, in-process
	// only): a value of the sender's process, delivered as it is, and no
	// Data.
	Ref any
}

// WireStats counts the bytes and frames an endpoint actually moved over
// its links.  The loopback transport reports all zeros: nothing crosses
// a wire.
type WireStats struct {
	FramesSent, FramesRecv int64
	// BytesSent / BytesRecv are on-the-wire volumes including frame
	// headers, counted as they cross the socket.
	BytesSent, BytesRecv int64
	// Flushes counts writer flushes; FramesSent/Flushes > 1 means the
	// writer coalesced queued frames into shared syscalls.
	Flushes int64
}

// Transport is one rank's endpoint on a world fabric.
//
// Send is buffered: it returns once the payload is queued and never
// blocks on the receiver, matching the original in-process semantics.
// Recv blocks for the earliest inbound message matching (src, tag),
// honouring AnySource/AnyTag wildcards, with messages of one (source,
// tag) pair delivered in the order they were sent.
type Transport interface {
	// Rank reports this endpoint's rank in [0, Size()).
	Rank() int
	// Size reports the number of endpoints in the fabric.
	Size() int
	// Listen binds the endpoint's inbound side (TCP: the listening
	// socket higher-ranked peers and the rendezvous dial into).
	Listen() error
	// Dial connects the endpoint to every peer (TCP: the rank-0
	// rendezvous handshake and the pairwise links); it returns when the
	// fabric is ready for Send/Recv.
	Dial() error
	// Send enqueues a copy of data for dst.
	Send(dst, tag int, data []byte) error
	// SendNoCopy enqueues data without copying, transferring ownership
	// of the payload to the transport: the caller must not read, write,
	// or pool.Put data (or any alias of it) afterwards.  The delivered
	// Message's Data is in turn owned by the receiver, which may return
	// it to a buffer pool.  Transports that put the payload on a wire
	// recycle it themselves once it has been written.
	SendNoCopy(dst, tag int, data []byte) error
	// SendRef enqueues ref, a value of this process, for dst, which
	// receives it as Message.Ref: nothing is copied or encoded, and what
	// ref points to is read in place.  Only an in-process fabric can
	// deliver a reference; a wired one refuses it (checkSend).
	SendRef(dst, tag int, ref any) error
	// Recv blocks until a message matching (src, tag) is available and
	// removes it.  It returns ErrClosed after Close, or the transport
	// failure that tore the endpoint down.
	Recv(src, tag int) (Message, error)
	// DrainTag removes every queued message with the given tag (any
	// source), returning the count discarded and their payload bytes.
	DrainTag(tag int) (n int, bytes int64)
	// Flush blocks until every queued outbound payload has left the
	// endpoint (TCP: written to the sockets).  A no-op for loopback, whose
	// sends are done when they return.
	Flush() error
	// Quiesce marks the endpoint as shutting down: subsequent link
	// failures are expected (peers closing) and no longer fail the
	// endpoint.  Recv keeps working for the shutdown barrier; once a
	// peer's link is gone, a Recv naming that peer takes what the link
	// delivered and then fails, naming the peer, instead of waiting.
	Quiesce()
	// Close tears the endpoint down: blocked Recvs return ErrClosed and
	// links are dropped.  Close is idempotent.
	Close() error
	// Stats reports the endpoint's wire-level counters.
	Stats() WireStats
}

// checkSend is the one check of every send entry point of both fabrics,
// so that a program that passes on one cannot fail on the other except
// for what only one of them can carry: dst is a rank of the size-rank
// world, tag is not one of the negative tags reserved for the transport's
// own control frames, and a reference (ref) is not sent over a wire.
func checkSend(dst, tag, size int, ref, wired bool) error {
	if dst < 0 || dst >= size {
		return fmt.Errorf("transport: send to invalid rank %d", dst)
	}
	if tag < 0 {
		return fmt.Errorf("transport: tag %d is reserved", tag)
	}
	if ref && wired {
		return fmt.Errorf("transport: a reference cannot cross a wire (tag %d to rank %d)", tag, dst)
	}
	return nil
}
