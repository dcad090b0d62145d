package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Wire framing: every message crosses a link as one length-prefixed
// frame.  The header is fixed-size little-endian —
//
//	[0:4)  uint32  payload length
//	[4:8)  int32   source rank
//	[8:12) int32   tag
//
// followed by the payload bytes.  Per-pair ordering is the TCP stream's
// own; no sequence numbers are needed.  Negative tags are reserved for
// the transport's control frames (rendezvous hello and address book);
// internal/mpi never sends them.
const (
	// FrameHeaderSize is the fixed frame-header length in bytes.
	FrameHeaderSize = 12

	// DefaultMaxFrame bounds the payload length a decoder accepts.  A
	// garbage or hostile header must never make the reader allocate an
	// absurd buffer; anything larger than this is a frame error.
	DefaultMaxFrame = 1 << 30
)

// Control tags of the rendezvous handshake.
const (
	tagHello = -2 // payload: the sender's listen address (may be empty on pair links)
	tagBook  = -3 // payload: the encoded rank→address book
)

// ErrFrame is wrapped by every frame-decoding error.
var ErrFrame = errors.New("transport: bad frame")

// putFrameHeader and parseFrameHeader are the frame header's one
// encoder and one decoder: the rank links, the rendezvous handshake and
// FrameConn (which adds its CRC) all go through them, so the length is
// held against the limit — before anything is allocated for it — here
// and nowhere else.
func putFrameHeader(hdr []byte, src, tag, payloadLen int) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(payloadLen))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(int32(src)))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(int32(tag)))
}

func parseFrameHeader(hdr []byte, maxFrame int) (src, tag, payloadLen int, err error) {
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > uint32(maxFrame) {
		return 0, 0, 0, fmt.Errorf("%w: payload length %d exceeds limit %d", ErrFrame, n, maxFrame)
	}
	src = int(int32(binary.LittleEndian.Uint32(hdr[4:8])))
	tag = int(int32(binary.LittleEndian.Uint32(hdr[8:12])))
	return src, tag, int(n), nil
}

// readPayload fills payload, the length a parsed header named, from r.
func readPayload(r io.Reader, payload []byte) error {
	if _, err := io.ReadFull(r, payload); err != nil {
		return truncated(err)
	}
	return nil
}

// truncated is the error of a payload read that failed part way.
func truncated(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%w: truncated payload: %v", ErrFrame, err)
}

// appendFrame appends the encoded frame to dst and returns it.
func appendFrame(dst []byte, src, tag int, payload []byte) []byte {
	var hdr [FrameHeaderSize]byte
	putFrameHeader(hdr[:], src, tag, len(payload))
	return append(append(dst, hdr[:]...), payload...)
}

// readFrame reads one frame from r, its payload into a freshly
// allocated buffer of at most maxFrame bytes.
func readFrame(r io.Reader, maxFrame int) (src, tag int, payload []byte, err error) {
	var hdr [FrameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err // EOF between frames is a link event, not a frame error
	}
	src, tag, n, err := parseFrameHeader(hdr[:], maxFrame)
	if err != nil {
		return 0, 0, nil, err
	}
	payload = make([]byte, n)
	if err := readPayload(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return src, tag, payload, nil
}

// Address-book wire form: count, then count length-prefixed strings,
// all as uvarints.  Decoding tolerates garbage (the payload crossed the
// wire) by erroring, never panicking.

func encodeBook(addrs []string) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(addrs)))
	for _, a := range addrs {
		buf = binary.AppendUvarint(buf, uint64(len(a)))
		buf = append(buf, a...)
	}
	return buf
}

func decodeBook(b []byte, wantSize int) ([]string, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n != uint64(wantSize) {
		return nil, fmt.Errorf("%w: address book for %d ranks, want %d", ErrFrame, n, wantSize)
	}
	b = b[k:]
	addrs := make([]string, wantSize)
	for i := range addrs {
		ln, k := binary.Uvarint(b)
		if k <= 0 || ln > uint64(len(b)-k) {
			return nil, fmt.Errorf("%w: truncated address book entry %d", ErrFrame, i)
		}
		b = b[k:]
		addrs[i] = string(b[:ln])
		b = b[ln:]
	}
	return addrs, nil
}
