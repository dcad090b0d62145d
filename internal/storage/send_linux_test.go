//go:build linux

package storage

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"path/filepath"
	"testing"
)

// TestFileSendTo: a File sends to a TCP socket by sendfile and to any
// other writer by a copy, and both carry what ReadAtv reads of the same
// extents — within the file, across its end, wholly past it, empty,
// adjacent ones that one sendfile moves — while the file's shared offset
// stays where it was.
func TestFileSendTo(t *testing.T) {
	fb, err := OpenFile(filepath.Join(t.TempDir(), "f"))
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	const size = 300 << 10
	img := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(img)
	if _, err := fb.WriteAt(img, 0); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	out, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	in, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	for _, exts := range [][]Extent{
		{{Off: 0, N: size}},
		{{Off: 5, N: 7}, {Off: 200 << 10, N: 64 << 10}, {Off: 1, N: 0}, {Off: 9, N: 1}},
		{{Off: size - 100, N: 4096}},
		{{Off: size + 10, N: 33}, {Off: 3, N: 3}},
		{{Off: 100, N: 50}, {Off: 150, N: 0}, {Off: 150, N: 8 << 10}, {Off: size - 20, N: 10}, {Off: size - 10, N: 40}, {Off: size + 30, N: 5}},
		{},
	} {
		var n int64
		segs := make([]Segment, len(exts))
		for i, e := range exts {
			segs[i] = Segment{Off: e.Off, Buf: make([]byte, e.N)}
			n += e.N
		}
		if err := fb.ReadAtv(segs); err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, sg := range segs {
			want = append(want, sg.Buf...)
		}

		got := make([]byte, n)
		done := make(chan error, 1)
		go func() {
			_, err := io.ReadFull(in, got)
			done <- err
		}()
		m, err := fb.SendTo(out, exts)
		if err != nil || m != n {
			t.Fatalf("%v: sent (%d, %v) to a socket, want %d bytes", exts, m, err, n)
		}
		if err := <-done; err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%v: the socket carried other bytes than ReadAtv reads (%v)", exts, err)
		}

		var buf bytes.Buffer
		if m, err := fb.SendTo(&buf, exts); err != nil || m != n || !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%v: sent (%d, %v) to a buffer, and other bytes than ReadAtv reads", exts, m, err)
		}
	}
	if pos, err := fb.f.Seek(0, io.SeekCurrent); err != nil || pos != 0 {
		t.Errorf("sending moved the file's offset to %d (%v)", pos, err)
	}
}
