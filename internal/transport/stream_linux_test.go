//go:build linux

package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"syscall"
	"testing"
	"time"
)

// tcpFramePair returns the two FrameConns of a loopback TCP connection.
func tcpFramePair(t *testing.T) (w, r *FrameConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	w, r = NewFrameConn(a, 0), NewFrameConn(b, 0)
	t.Cleanup(func() { w.Close(); r.Close() })
	return w, r
}

// readFrameConn reads one frame from r, failing the test when none
// arrives within a few seconds.
func readFrameConn(t *testing.T, r *FrameConn) (seq, tag int, payload []byte) {
	t.Helper()
	r.SetDeadline(time.Now().Add(5 * time.Second))
	defer r.SetDeadline(time.Time{})
	seq, tag, n, err := r.ReadHeader()
	if err != nil {
		t.Fatal(err)
	}
	payload = make([]byte, n)
	if err := r.ReadPayload(payload); err != nil {
		t.Fatal(err)
	}
	return seq, tag, payload
}

// TestWriteFrameFromTCP: a streamed frame on a TCP connection arrives
// whole whether its fill writes through the writer, through the socket
// the writer lends (the way a store sends), or both; a fill that fails
// before any byte went out — with nothing written, or with a short write
// held back with the header — leaves the stream as it was (sent false,
// and the next frame is read intact); one that fails after a long write,
// or reports the wrong count, reports sent.
func TestWriteFrameFromTCP(t *testing.T) {
	w, r := tcpFramePair(t)
	long := bytes.Repeat([]byte("0123456789"), 10_000)
	boom := errors.New("boom")
	raw := func(fw io.Writer, p []byte) error {
		rc, err := fw.(syscall.Conn).SyscallConn()
		if err != nil {
			return err
		}
		var werr error
		err = rc.Write(func(fd uintptr) bool {
			for len(p) > 0 {
				n, err := syscall.Write(int(fd), p)
				if err == syscall.EAGAIN {
					return false
				}
				if err != nil {
					werr = err
					return true
				}
				p = p[n:]
			}
			return true
		})
		if werr != nil {
			return werr
		}
		return err
	}
	for i, tc := range []struct {
		name string
		fill func(fw io.Writer) (int64, error)
		want []byte // the payload, nil when the frame fails
		sent bool
	}{
		{"short and long writes", func(fw io.Writer) (int64, error) {
			fw.Write([]byte{7})
			fw.Write(long)
			return 1 + int64(len(long)), nil
		}, append([]byte{7}, long...), true},
		{"empty", func(io.Writer) (int64, error) { return 0, nil }, []byte{}, true},
		{"through the socket", func(fw io.Writer) (int64, error) {
			fw.Write([]byte("flag"))
			if err := raw(fw, long); err != nil {
				return 0, err
			}
			fw.Write([]byte("tail"))
			return int64(len(long)) + 8, nil
		}, append(append([]byte("flag"), long...), "tail"...), true},
		{"refused at once", func(io.Writer) (int64, error) { return 0, boom }, nil, false},
		{"refused after a short write", func(fw io.Writer) (int64, error) {
			fw.Write([]byte{1})
			return 1, boom
		}, nil, false},
	} {
		n := len(tc.want)
		if tc.want == nil {
			n = 1 + len(long)
		}
		sent, err := w.WriteFrameFrom(i, TagServerFirst, n, tc.fill)
		if sent != tc.sent || (err == nil) != (tc.want != nil) {
			t.Fatalf("%s: (sent %t, %v), want sent %t", tc.name, sent, err, tc.sent)
		}
		if tc.want == nil {
			// The stream is as it was: the next frame is a whole one.
			if err := w.WriteFrame(i, TagServerFirst, []byte("instead")); err != nil {
				t.Fatal(err)
			}
			tc.want = []byte("instead")
		}
		if seq, tag, got := readFrameConn(t, r); seq != i || tag != TagServerFirst || !bytes.Equal(got, tc.want) {
			t.Fatalf("%s: read frame (%d, %d) of %d bytes, want (%d, %d) of %d", tc.name, seq, tag, len(got), i, TagServerFirst, len(tc.want))
		}
	}

	if sent, err := w.WriteFrameFrom(9, TagServerFirst, 10, func(fw io.Writer) (int64, error) {
		n, err := fw.Write(long)
		return int64(n), err
	}); !sent || !errors.Is(err, ErrFrame) {
		t.Errorf("a fill longer than its frame: (sent %t, %v), want sent and ErrFrame", sent, err)
	}
	if sent, err := w.WriteFrameFrom(9, TagServerFirst, len(long), func(fw io.Writer) (int64, error) {
		n, _ := fw.Write(long[:1000])
		return int64(n), boom
	}); !sent || err != boom {
		t.Errorf("a fill failing after a long write: (sent %t, %v), want sent and its error", sent, err)
	}
}

// TestWriteFrameFromBuffered: on a connection that is not TCP a streamed
// frame is gathered and sent as one Write, the writer lends no socket,
// and a fill that fails sends nothing.
func TestWriteFrameFromBuffered(t *testing.T) {
	a, b := net.Pipe()
	cc := &countConn{Conn: a}
	w, r := NewFrameConn(cc, 0), NewFrameConn(b, 0)
	defer w.Close()
	defer r.Close()
	long := bytes.Repeat([]byte{3}, 3*readBufSize)
	done := make(chan error, 1)
	go func() {
		if _, err := w.WriteFrameFrom(1, TagServerFirst, 1, func(io.Writer) (int64, error) {
			return 0, errors.New("refused")
		}); err == nil {
			done <- errors.New("a refused fill succeeded")
			return
		}
		_, err := w.WriteFrameFrom(2, TagServerFirst, 1+len(long), func(fw io.Writer) (int64, error) {
			if _, err := fw.(syscall.Conn).SyscallConn(); err == nil {
				return 0, errors.New("the writer lent a socket it does not have")
			}
			fw.Write([]byte{1})
			fw.Write(long)
			return 1 + int64(len(long)), nil
		})
		done <- err
	}()
	seq, _, got := readFrameConn(t, r)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if seq != 2 || !bytes.Equal(got, append([]byte{1}, long...)) {
		t.Fatalf("read frame %d of %d bytes, want frame 2 of %d", seq, len(got), 1+len(long))
	}
	if n := cc.writes.Load(); n != 1 {
		t.Fatalf("a streamed frame and a refused one took %d Writes, want 1", n)
	}
}

// TestWriteFrameParts: a frame whose payload is given as parts arrives as
// their concatenation — over TCP by writev (more parts than one writev
// takes, empty parts, a short frame), and on a connection that is not TCP
// as one Write per frame — and the caller's parts are left as they were.
func TestWriteFrameParts(t *testing.T) {
	many := make([][]byte, 1500)
	for i := range many {
		many[i] = bytes.Repeat([]byte{byte(i)}, i%7*64)
	}
	cases := [][][]byte{
		{[]byte("head"), bytes.Repeat([]byte{1}, 4096), nil, bytes.Repeat([]byte{2}, 3)},
		{[]byte("sh"), []byte("ort")},
		{},
		many,
	}
	check := func(t *testing.T, w, r *FrameConn) {
		done := make(chan error, 1)
		go func() {
			for i, parts := range cases {
				before := append([][]byte(nil), parts...)
				if err := w.WriteFrame(i, TagServerFirst, parts...); err != nil {
					done <- err
					return
				}
				for j := range parts {
					if len(parts[j]) != len(before[j]) || (len(parts[j]) > 0 && &parts[j][0] != &before[j][0]) {
						done <- errors.New("WriteFrame changed the caller's parts")
						return
					}
				}
			}
			done <- nil
		}()
		for i, parts := range cases {
			seq, tag, payload := readFrameConn(t, r)
			if want := bytes.Join(parts, nil); seq != i || tag != TagServerFirst || !bytes.Equal(payload, want) {
				t.Fatalf("frame %d: seq %d tag %d, %d payload bytes differ from the %d of its parts", i, seq, tag, len(payload), len(want))
			}
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	t.Run("tcp", func(t *testing.T) {
		w, r := tcpFramePair(t)
		check(t, w, r)
	})
	t.Run("pipe", func(t *testing.T) {
		a, b := net.Pipe()
		cc := &countConn{Conn: a}
		w, r := NewFrameConn(cc, 0), NewFrameConn(b, 0)
		defer w.Close()
		defer r.Close()
		check(t, w, r)
		if n := cc.writes.Load(); n != int64(len(cases)) {
			t.Fatalf("%d frames took %d Writes", len(cases), n)
		}
	})
}
