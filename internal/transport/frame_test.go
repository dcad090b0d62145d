package transport

import (
	"bytes"
	"errors"
	"io"
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
