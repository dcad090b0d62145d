package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"syscall"
	"time"
)

// Request/response framing for protocols layered on the frame codec —
// the I/O-server tier's wire substrate.  Unlike the rank fabric's
// tagged mailboxes, a FrameConn is a plain sequential stream: one side
// writes a request frame and reads the response frame, the other reads
// requests and writes responses.  The frame envelope is reused with a
// different meaning: tag carries the protocol operation (drawn from the
// reserved server-tag range below), src carries a caller-chosen
// sequence number echoed in the response, so a desynchronized peer is
// detected instead of silently answering the wrong request.
//
// Unlike the rank fabric's raw frames, FrameConn headers carry a
// trailing CRC32-C over the (length, seq, tag) fields.  The header is
// the protocol's only self-describing region: a flipped bit in the tag
// executes the wrong operation, and a flipped bit in the length can
// swallow the following frame while still producing a response whose
// seq and tag match — silent corruption the seq echo cannot catch.
// With the checksum, any header damage is a framing error that kills
// the connection; the client reconnects, replays its stage log, and
// reissues, so corruption costs a transient instead of wrong bytes.
//
// FrameConn is not safe for concurrent use; callers serialize
// request/response round-trips (internal/ioserver holds one mutex per
// connection).

// Server-protocol tag space: negative tags in [TagServerLast,
// TagServerFirst] are reserved for request/response protocols.  They
// sit below the rendezvous handshake tags (tagHello, tagBook), so a
// stray server frame on a rank link is rejected as a negative tag, and
// a stray rank frame on a server connection falls outside the op range.
const (
	TagServerFirst = -16
	TagServerLast  = -63
)

// rpcHeaderSize is FrameConn's extended header: the frame header plus
// the CRC32-C of its bytes.
const rpcHeaderSize = FrameHeaderSize + 4

var rpcCRCTable = crc32.MakeTable(crc32.Castagnoli)

// FrameConn frames request/response messages over one net.Conn.
//
// A frame is read in two steps, ReadHeader and then ReadPayload, so that
// the caller chooses where the payload lands (a pooled frame, a reused
// buffer, or the destination of a read) before any of it is read.  A
// frame is written as one chunk: by one writev of header and payload
// parts on a *net.TCPConn, so that a payload that lies in several places
// in memory is not copied into one first, and by one Write of a copy of
// all of it on anything else — a wrapper such as ChaosConn acts on each
// Write, and a header written apart from its payload could be duplicated
// or dropped on its own, leaving a valid header in front of the wrong
// bytes.
//
// WriteFrameFrom streams a payload instead: a callback writes it to the
// frame's writer, which on a TCP connection lends the socket itself to a
// store that can send to it (storage.File, by sendfile).
type FrameConn struct {
	conn     net.Conn
	tcp      *net.TCPConn // conn, when it is one
	br       *bufio.Reader
	maxFrame int
	left     int // bytes of the last header's payload not yet read

	rhdr [rpcHeaderSize]byte // header being read
	whdr [rpcHeaderSize]byte // header being written
	vec  [][]byte            // a writev's header and payload parts, cleared after the write
	out  net.Buffers         // the writev, over vec, which it consumes
	wbuf []byte              // a non-TCP connection's frame copy, or a streamed frame's unsent head; reused
	fw   frameWriter         // a streamed frame's writer
	hrc  headedRawConn       // fw's socket, on TCP
}

// NewFrameConn wraps conn.  maxFrame bounds accepted payload lengths
// (<= 0 selects DefaultMaxFrame); the length is validated before any
// allocation, so a garbage or hostile header cannot over-allocate.
func NewFrameConn(conn net.Conn, maxFrame int) *FrameConn {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	tcp, _ := conn.(*net.TCPConn)
	fc := &FrameConn{
		conn:     conn,
		tcp:      tcp,
		br:       bufio.NewReaderSize(conn, readBufSize),
		maxFrame: maxFrame,
	}
	fc.fw.fc = fc
	if tcp != nil {
		if rc, err := tcp.SyscallConn(); err == nil {
			fc.hrc = headedRawConn{RawConn: rc, w: &fc.fw}
		}
	}
	return fc
}

// putHeader encodes the header of a frame of n payload bytes, with its
// checksum, into fc.whdr.
func (fc *FrameConn) putHeader(seq, tag, n int) error {
	if n > fc.maxFrame {
		return fmt.Errorf("%w: payload length %d exceeds limit %d", ErrFrame, n, fc.maxFrame)
	}
	putFrameHeader(fc.whdr[:], seq, tag, n)
	binary.LittleEndian.PutUint32(fc.whdr[FrameHeaderSize:], crc32.Checksum(fc.whdr[:FrameHeaderSize], rpcCRCTable))
	return nil
}

// WriteFrame sends one frame whose payload is parts, in order: seq is
// echoed by the peer's response, tag the protocol operation.  The parts
// are not retained.  On TCP the frame goes out by one writev of header and
// parts, or by one Write of a copy when it is short; on any other
// connection by one Write of a copy of all of it.
func (fc *FrameConn) WriteFrame(seq, tag int, parts ...[]byte) error {
	var n int
	for _, p := range parts {
		n += len(p)
	}
	if err := fc.putHeader(seq, tag, n); err != nil {
		return err
	}
	if fc.tcp == nil || rpcHeaderSize+n < smallWrite {
		fc.wbuf = append(fc.wbuf[:0], fc.whdr[:]...)
		for _, p := range parts {
			fc.wbuf = append(fc.wbuf, p...)
		}
		_, err := fc.conn.Write(fc.wbuf)
		fc.wbuf = fc.wbuf[:0]
		return err
	}
	fc.vec = append(append(fc.vec[:0], fc.whdr[:]), parts...)
	fc.out = fc.vec
	_, err := fc.out.WriteTo(fc.tcp)
	clear(fc.vec)
	return err
}

// WriteFrameFrom sends one frame of n payload bytes that fill writes to
// the writer it is handed, and reports how many it wrote.  The header
// goes out with the first payload bytes, not before: until fill has
// written some (and anything under smallWrite bytes is held back with the
// header), nothing reaches the connection, so a fill that fails before
// then leaves the stream as it was — sent is false — and the caller may
// answer with another frame.  Once sent is true a failure leaves a frame
// cut short, and the connection must be dropped.  A fill that reports
// other than n bytes fails the frame.
//
// On a TCP connection the writer is also a syscall.Conn whose RawConn
// writes to the socket once the header is out, so that a store can send
// to it with no copy through memory.  On any other connection — a
// ChaosConn — it is not, and the frame is gathered and sent as one Write,
// as WriteFrame does.
func (fc *FrameConn) WriteFrameFrom(seq, tag, n int, fill func(w io.Writer) (int64, error)) (sent bool, err error) {
	if err := fc.putHeader(seq, tag, n); err != nil {
		return false, err
	}
	fc.wbuf = append(fc.wbuf[:0], fc.whdr[:]...)
	fc.fw.sent = false
	m, err := fill(&fc.fw)
	if err == nil && m != int64(n) {
		err = fmt.Errorf("%w: streamed %d payload bytes of %d", ErrFrame, m, n)
	}
	if err == nil {
		err = fc.fw.flush()
	}
	return fc.fw.sent, err
}

// smallWrite is the length under which a streamed frame's writer holds a
// write back with the header that has not gone out yet.
const smallWrite = 512

// frameWriter is the writer WriteFrameFrom hands its fill.  fc.wbuf holds
// what is not yet sent: the header and the payload so far on a TCP
// connection until a write goes out, the whole frame on any other.
type frameWriter struct {
	fc   *FrameConn
	sent bool // some of the frame may have reached the connection
}

// Write implements io.Writer.
func (w *frameWriter) Write(p []byte) (int, error) {
	fc := w.fc
	if fc.tcp == nil || (len(fc.wbuf) > 0 && len(fc.wbuf)+len(p) < smallWrite) {
		fc.wbuf = append(fc.wbuf, p...)
		return len(p), nil
	}
	w.sent = true
	if len(fc.wbuf) == 0 {
		return fc.tcp.Write(p)
	}
	fc.vec = append(fc.vec[:0], fc.wbuf, p)
	fc.out = fc.vec
	m, err := fc.out.WriteTo(fc.tcp)
	clear(fc.vec)
	head := len(fc.wbuf)
	fc.wbuf = fc.wbuf[:0]
	return max(int(m)-head, 0), err
}

// flush sends what is held back: the frame on a wrapped connection, the
// header and a short payload on TCP.
func (w *frameWriter) flush() error {
	fc := w.fc
	if len(fc.wbuf) == 0 {
		return nil
	}
	w.sent = true
	_, err := fc.conn.Write(fc.wbuf)
	fc.wbuf = fc.wbuf[:0]
	return err
}

// errNotSocket is frameWriter.SyscallConn's answer on a connection that
// is not TCP.
var errNotSocket = errors.New("transport: frame writer is not a socket")

// SyscallConn implements syscall.Conn on a TCP connection: the socket's
// RawConn, whose Write sends what is held back before it runs.  The
// function given to that Write must send bytes: the held-back head goes
// out marked as having more to follow, and the kernel holds it for them.
func (w *frameWriter) SyscallConn() (syscall.RawConn, error) {
	if w.fc.hrc.RawConn == nil {
		return nil, errNotSocket
	}
	return &w.fc.hrc, nil
}

// headedRawConn is the socket of a frame being streamed: a write through
// it sends the frame's held-back head first, marked as having more to
// follow, so that the two leave in one segment where they fit.
type headedRawConn struct {
	syscall.RawConn
	w *frameWriter
}

// Write implements syscall.RawConn.
func (c *headedRawConn) Write(f func(fd uintptr) bool) error {
	fc := c.w.fc
	if len(fc.wbuf) > 0 {
		c.w.sent = true
		err := sendMore(c.RawConn, fc.tcp, fc.wbuf)
		fc.wbuf = fc.wbuf[:0]
		if err != nil {
			return err
		}
	}
	return c.RawConn.Write(f)
}

// ReadHeader reads the next frame's header and returns the length of its
// payload, which the caller then reads with ReadPayload — all of it,
// before the next ReadHeader.  A truncated header, a header checksum
// mismatch, or an oversized length returns an error wrapping ErrFrame;
// EOF before the header is the peer hanging up.
func (fc *FrameConn) ReadHeader() (seq, tag, n int, err error) {
	if _, err := io.ReadFull(fc.br, fc.rhdr[:]); err != nil {
		return 0, 0, 0, err // EOF between frames is a link event, not a frame error
	}
	hdr := fc.rhdr[:]
	if got, want := crc32.Checksum(hdr[:FrameHeaderSize], rpcCRCTable), binary.LittleEndian.Uint32(hdr[FrameHeaderSize:]); got != want {
		return 0, 0, 0, fmt.Errorf("%w: header checksum mismatch (%#x vs %#x)", ErrFrame, got, want)
	}
	if seq, tag, n, err = parseFrameHeader(hdr[:FrameHeaderSize], fc.maxFrame); err != nil {
		return 0, 0, 0, err
	}
	fc.left = n
	return seq, tag, n, nil
}

// ReadPayload reads the next len(p) bytes of the current frame's payload
// into p; a payload may be read in several pieces.  It reads through the
// buffered reader, which serves a short piece from its buffer, so a list
// of short pieces costs a read(2) per buffer's worth, not one each, and
// reads a piece at least as long as the buffer, once the buffer is
// empty, straight from the connection.
func (fc *FrameConn) ReadPayload(p []byte) error {
	if len(p) > fc.left {
		return fmt.Errorf("%w: read of %d bytes with %d left in the payload", ErrFrame, len(p), fc.left)
	}
	fc.left -= len(p)
	return readPayload(fc.br, p)
}

// SetDeadline bounds the next read and write on the underlying
// connection; the zero time clears it.
func (fc *FrameConn) SetDeadline(t time.Time) error { return fc.conn.SetDeadline(t) }

// Close closes the underlying connection.
func (fc *FrameConn) Close() error { return fc.conn.Close() }
