package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	payloads := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{0xab}, 1000)}
	for i, p := range payloads {
		buf = appendFrame(buf, i, 100+i, p)
	}
	rest := bytes.NewReader(buf)
	for i, p := range payloads {
		src, tag, payload, err := readFrame(rest, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if src != i || tag != 100+i || !bytes.Equal(payload, p) {
			t.Fatalf("frame %d: got (src=%d tag=%d len=%d)", i, src, tag, len(payload))
		}
	}
	if rest.Len() != 0 {
		t.Fatalf("%d trailing bytes", rest.Len())
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	full := appendFrame(nil, 1, 2, []byte("payload"))
	cases := []struct {
		name string
		b    []byte
		max  int
	}{
		{"truncated payload", full[:len(full)-3], DefaultMaxFrame},
		{"oversized", appendFrame(nil, 0, 0, make([]byte, 64)), 16},
		{"garbage length", []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0}, 1 << 20},
	}
	for _, tc := range cases {
		if _, _, _, err := readFrame(bytes.NewReader(tc.b), tc.max); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: err = %v, want ErrFrame", tc.name, err)
		}
	}
	// A stream that ends inside a header is the link going away, as an
	// empty one is: not a frame error.
	for _, b := range [][]byte{nil, full[:FrameHeaderSize-1]} {
		if _, _, _, err := readFrame(bytes.NewReader(b), DefaultMaxFrame); err == nil || errors.Is(err, ErrFrame) {
			t.Errorf("%d-byte stream: err = %v, want an EOF", len(b), err)
		}
	}
}

func TestReadFrame(t *testing.T) {
	full := appendFrame(nil, 3, 7, []byte("wire payload"))
	src, tag, payload, err := readFrame(bytes.NewReader(full), DefaultMaxFrame)
	if err != nil || src != 3 || tag != 7 || string(payload) != "wire payload" {
		t.Fatalf("got (%d, %d, %q, %v)", src, tag, payload, err)
	}

	// EOF at a frame boundary is a link event, not a frame error.
	if _, _, _, err := readFrame(bytes.NewReader(nil), DefaultMaxFrame); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
	// A payload cut short is a frame error.
	if _, _, _, err := readFrame(bytes.NewReader(full[:len(full)-1]), DefaultMaxFrame); !errors.Is(err, ErrFrame) {
		t.Fatalf("truncated stream: err = %v, want ErrFrame", err)
	}
	// An oversized length errors before allocating.
	huge := appendFrame(nil, 0, 0, nil)
	huge[3] = 0x7f // claim ~2 GiB payload
	if _, _, _, err := readFrame(bytes.NewReader(huge), 1<<20); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized claim: err = %v, want ErrFrame", err)
	}
}

func TestFrameHeaderHalves(t *testing.T) {
	var hdr [FrameHeaderSize]byte
	putFrameHeader(hdr[:], 5, 1<<20+2, 999)
	src, tag, n, err := parseFrameHeader(hdr[:], DefaultMaxFrame)
	if err != nil || src != 5 || tag != 1<<20+2 || n != 999 {
		t.Fatalf("got (%d, %d, %d, %v)", src, tag, n, err)
	}
	if _, _, _, err := parseFrameHeader(hdr[:], 100); !errors.Is(err, ErrFrame) {
		t.Fatalf("limit: err = %v, want ErrFrame", err)
	}
}

// countConn counts the Reads and Writes made on a net.Conn that is no
// *net.TCPConn, as a ChaosConn is.
type countConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestFrameConnOneWritePerFrame: on a connection that is no
// *net.TCPConn a frame is one Write, header and payload together, so
// that a wrapper faulting a Write faults a whole frame.
func TestFrameConnOneWritePerFrame(t *testing.T) {
	a, b := net.Pipe()
	cc := &countConn{Conn: a}
	w, r := NewFrameConn(cc, 0), NewFrameConn(b, 0)
	defer w.Close()
	defer r.Close()
	payloads := [][]byte{nil, []byte("short"), bytes.Repeat([]byte{9}, 3*readBufSize)}
	done := make(chan error, 1)
	go func() {
		for i, p := range payloads {
			if err := w.WriteFrame(i, TagServerFirst, p); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i, p := range payloads {
		seq, tag, n, err := r.ReadHeader()
		if err != nil || seq != i || tag != TagServerFirst || n != len(p) {
			t.Fatalf("frame %d: header (%d, %d, %d, %v)", i, seq, tag, n, err)
		}
		got := make([]byte, n)
		if err := r.ReadPayload(got); err != nil || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload differs (%v)", i, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := cc.writes.Load(); n != int64(len(payloads)) {
		t.Fatalf("%d frames took %d Writes", len(payloads), n)
	}
}

// TestReadPayloadPartlyBuffered: a payload of which the buffered reader
// holds the head, read in pieces — one inside the buffered head, one
// across its end, the rest straight from the connection — arrives
// whole, a read past its end is a frame error, and the next frame is
// read from where this one ended.
func TestReadPayloadPartlyBuffered(t *testing.T) {
	a, b := net.Pipe()
	w, r := NewFrameConn(a, 0), NewFrameConn(b, 0)
	defer w.Close()
	defer r.Close()
	long := make([]byte, 2*readBufSize+123)
	for i := range long {
		long[i] = byte(i * 7)
	}
	go func() {
		w.WriteFrame(1, TagServerFirst, long)
		w.WriteFrame(2, TagServerFirst, []byte("next"))
	}()
	if _, _, n, err := r.ReadHeader(); err != nil || n != len(long) {
		t.Fatalf("header: n=%d err=%v", n, err)
	}
	if r.br.Buffered() == 0 || r.br.Buffered() >= len(long) {
		t.Fatalf("the buffered reader holds %d bytes of the %d-byte payload, want a part", r.br.Buffered(), len(long))
	}
	got := make([]byte, len(long))
	cuts := []int{10, r.br.Buffered() + 100, len(long)}
	at := 0
	for _, cut := range cuts {
		if err := r.ReadPayload(got[at:cut]); err != nil {
			t.Fatal(err)
		}
		at = cut
	}
	if !bytes.Equal(got, long) {
		t.Fatal("the payload read in pieces differs")
	}
	if err := r.ReadPayload(make([]byte, 1)); !errors.Is(err, ErrFrame) {
		t.Fatalf("read past the payload: err = %v, want ErrFrame", err)
	}
	seq, _, n, err := r.ReadHeader()
	next := make([]byte, n)
	if err != nil || seq != 2 || r.ReadPayload(next) != nil || string(next) != "next" {
		t.Fatalf("next frame: seq=%d %q err=%v", seq, next, err)
	}
}

// TestReadPayloadShortPiecesBuffered: a payload several times the read
// buffer, read in 256-byte pieces as a list of short segments is, costs
// about one Read of the connection per buffer's worth, not one per piece.
func TestReadPayloadShortPiecesBuffered(t *testing.T) {
	a, b := net.Pipe()
	cc := &countConn{Conn: b}
	w, r := NewFrameConn(a, 0), NewFrameConn(cc, 0)
	defer w.Close()
	defer r.Close()
	const piece = 256
	long := make([]byte, 4*readBufSize)
	for i := range long {
		long[i] = byte(i * 13)
	}
	go w.WriteFrame(1, TagServerFirst, long)
	if _, _, n, err := r.ReadHeader(); err != nil || n != len(long) {
		t.Fatalf("header: n=%d err=%v", n, err)
	}
	got := make([]byte, len(long))
	for at := 0; at < len(got); at += piece {
		if err := r.ReadPayload(got[at : at+piece]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, long) {
		t.Fatal("the payload read in pieces differs")
	}
	if n, most := cc.reads.Load(), int64(2*len(long)/readBufSize+2); n > most {
		t.Fatalf("%d pieces of %d bytes took %d Reads of the connection, want at most %d",
			len(long)/piece, piece, n, most)
	}
}

func TestBookRoundTrip(t *testing.T) {
	addrs := []string{"127.0.0.1:9000", "127.0.0.1:9001", "", "[::1]:80"}
	got, err := decodeBook(encodeBook(addrs), len(addrs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range addrs {
		if got[i] != addrs[i] {
			t.Fatalf("entry %d: %q != %q", i, got[i], addrs[i])
		}
	}
	if _, err := decodeBook(encodeBook(addrs), 2); !errors.Is(err, ErrFrame) {
		t.Fatalf("size mismatch: err = %v, want ErrFrame", err)
	}
	if _, err := decodeBook([]byte{4, 0xff}, 4); !errors.Is(err, ErrFrame) {
		t.Fatalf("garbage: err = %v, want ErrFrame", err)
	}
}

// FuzzFrameDecode drives the frame decoder with arbitrary bytes:
// truncated, oversized, or garbage input must error (wrapping ErrFrame
// where a frame exists) — never panic and never allocate beyond the
// frame limit — and what decodes must re-encode to the bytes it came
// from.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendFrame(nil, 0, 0, nil))
	f.Add(appendFrame(nil, 3, 1<<20+1, []byte("seed payload")))
	f.Add(appendFrame(nil, -1, -1, bytes.Repeat([]byte{7}, 100)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(encodeBook([]string{"127.0.0.1:1", "127.0.0.1:2"}))
	const maxFrame = 1 << 16
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		src, tag, payload, err := readFrame(r, maxFrame)
		switch {
		case err == nil:
			if len(payload) > maxFrame {
				t.Fatalf("payload %d exceeds limit", len(payload))
			}
			if n := len(b) - r.Len(); !bytes.Equal(appendFrame(nil, src, tag, payload), b[:n]) {
				t.Fatalf("frame (%d %d %d) does not re-encode to the %d bytes it was read from", src, tag, len(payload), n)
			}
		case len(b) >= FrameHeaderSize && !errors.Is(err, ErrFrame):
			t.Fatalf("readFrame error past a whole header does not wrap ErrFrame: %v", err)
		}
		if _, err := decodeBook(b, 4); err != nil && !errors.Is(err, ErrFrame) {
			t.Fatalf("decodeBook error does not wrap ErrFrame: %v", err)
		}
	})
}
