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
type FrameConn struct {
	conn     net.Conn
	br       *bufio.Reader
	maxFrame int
	wbuf     []byte // reused write staging buffer
}

// NewFrameConn wraps conn.  maxFrame bounds accepted payload lengths
// (<= 0 selects DefaultMaxFrame); the length is validated before any
// allocation, so a garbage or hostile header cannot over-allocate.
func NewFrameConn(conn net.Conn, maxFrame int) *FrameConn {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &FrameConn{
		conn:     conn,
		br:       bufio.NewReaderSize(conn, readBufSize),
		maxFrame: maxFrame,
	}
}

// WriteFrame sends one frame: seq is echoed by the peer's response, tag
// the protocol operation.
func (fc *FrameConn) WriteFrame(seq, tag int, payload []byte) error {
	if len(payload) > fc.maxFrame {
		return fmt.Errorf("%w: payload length %d exceeds limit %d", ErrFrame, len(payload), fc.maxFrame)
	}
	var hdr [rpcHeaderSize]byte
	putFrameHeader(hdr[:], seq, tag, len(payload))
	binary.LittleEndian.PutUint32(hdr[FrameHeaderSize:], crc32.Checksum(hdr[:FrameHeaderSize], rpcCRCTable))
	fc.wbuf = append(fc.wbuf[:0], hdr[:]...)
	fc.wbuf = append(fc.wbuf, payload...)
	_, err := fc.conn.Write(fc.wbuf)
	return err
}

// ReadFrame reads one frame.  The payload is freshly allocated (at most
// maxFrame bytes, validated before allocation) and belongs to the
// caller: the FrameConn keeps no reference to it and never reuses it, so
// the caller may retain it, or slices of it, past the next ReadFrame
// (the I/O server parks staged writes this way).  A truncated header, a
// header checksum mismatch, or an oversized length returns an error
// wrapping ErrFrame.
func (fc *FrameConn) ReadFrame() (seq, tag int, payload []byte, err error) {
	var hdr [rpcHeaderSize]byte
	if _, err := io.ReadFull(fc.br, hdr[:]); err != nil {
		return 0, 0, nil, err // EOF between frames is a link event, not a frame error
	}
	if got, want := crc32.Checksum(hdr[:FrameHeaderSize], rpcCRCTable), binary.LittleEndian.Uint32(hdr[FrameHeaderSize:]); got != want {
		return 0, 0, nil, fmt.Errorf("%w: header checksum mismatch (%#x vs %#x)", ErrFrame, got, want)
	}
	return readFrameBody(fc.br, hdr[:FrameHeaderSize], fc.maxFrame)
}

// SetDeadline bounds the next read and write on the underlying
// connection; the zero time clears it.
func (fc *FrameConn) SetDeadline(t time.Time) error { return fc.conn.SetDeadline(t) }

// Close closes the underlying connection.
func (fc *FrameConn) Close() error { return fc.conn.Close() }
