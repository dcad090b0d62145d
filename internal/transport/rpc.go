package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
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
// frame is written as one chunk: by one writev of header and payload on
// a *net.TCPConn, and by one Write of a copy of both on anything else —
// a wrapper such as ChaosConn acts on each Write, and a header written
// apart from its payload could be duplicated or dropped on its own,
// leaving a valid header in front of the wrong bytes.
type FrameConn struct {
	conn     net.Conn
	tcp      *net.TCPConn // conn, when it is one
	br       *bufio.Reader
	maxFrame int
	left     int // bytes of the last header's payload not yet read

	rhdr [rpcHeaderSize]byte // header being read
	whdr [rpcHeaderSize]byte // header being written
	vec  [2][]byte           // writev's header and payload, cleared after the write
	out  net.Buffers         // the writev, over vec
	wbuf []byte              // a non-TCP connection's frame copy, reused
}

// NewFrameConn wraps conn.  maxFrame bounds accepted payload lengths
// (<= 0 selects DefaultMaxFrame); the length is validated before any
// allocation, so a garbage or hostile header cannot over-allocate.
func NewFrameConn(conn net.Conn, maxFrame int) *FrameConn {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	tcp, _ := conn.(*net.TCPConn)
	return &FrameConn{
		conn:     conn,
		tcp:      tcp,
		br:       bufio.NewReaderSize(conn, readBufSize),
		maxFrame: maxFrame,
	}
}

// WriteFrame sends one frame: seq is echoed by the peer's response, tag
// the protocol operation.  The payload is not retained.
func (fc *FrameConn) WriteFrame(seq, tag int, payload []byte) error {
	if len(payload) > fc.maxFrame {
		return fmt.Errorf("%w: payload length %d exceeds limit %d", ErrFrame, len(payload), fc.maxFrame)
	}
	putFrameHeader(fc.whdr[:], seq, tag, len(payload))
	binary.LittleEndian.PutUint32(fc.whdr[FrameHeaderSize:], crc32.Checksum(fc.whdr[:FrameHeaderSize], rpcCRCTable))
	if fc.tcp == nil {
		fc.wbuf = append(append(fc.wbuf[:0], fc.whdr[:]...), payload...)
		_, err := fc.conn.Write(fc.wbuf)
		return err
	}
	fc.vec = [2][]byte{fc.whdr[:], payload}
	fc.out = fc.vec[:]
	_, err := fc.out.WriteTo(fc.tcp)
	fc.vec = [2][]byte{}
	return err
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
