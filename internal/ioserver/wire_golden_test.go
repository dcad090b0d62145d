package ioserver

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/datatype"
	"repro/internal/storage"
	"repro/internal/transport"
)

var updateGolden = flag.Bool("update-wire-golden", false, "rewrite testdata/wire_golden.txt from what this build puts on the wire")

// wireTap relays one client connection to the server at backend, frame
// by frame, and notes every frame that crosses in either direction.
type wireTap struct {
	mu     sync.Mutex
	frames []string
}

func (w *wireTap) note(dir string, seq, tag int, payload []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.frames = append(w.frames, fmt.Sprintf("%s seq=%d tag=%d %x", dir, seq, tag, payload))
}

func (w *wireTap) serve(ln net.Listener, backend string) {
	conn, err := ln.Accept()
	if err != nil {
		return
	}
	up, err := net.Dial("tcp", backend)
	if err != nil {
		conn.Close()
		return
	}
	cf, uf := transport.NewFrameConn(conn, 0), transport.NewFrameConn(up, 0)
	defer cf.Close()
	defer uf.Close()
	for {
		seq, tag, payload, err := readFrame(cf)
		if err != nil {
			return
		}
		w.note(">", seq, tag, payload)
		if uf.WriteFrame(seq, tag, payload) != nil {
			return
		}
		if seq, tag, payload, err = readFrame(uf); err != nil {
			return
		}
		w.note("<", seq, tag, payload)
		if cf.WriteFrame(seq, tag, payload) != nil {
			return
		}
	}
}

// TestWireGolden pins the bytes: one request of every op a client sends,
// direct and staged, with its response, and the journal those requests
// leave, against testdata/wire_golden.txt — recorded at the commit before
// the protocol was gathered into one table and one codec per shape, so
// that neither a frame nor a journal record can move unnoticed.
func TestWireGolden(t *testing.T) {
	jb := storage.NewMem()
	srv, err := New(Config{Backend: storage.NewMem(), Geom: storage.StripeGeom{Unit: 64, Count: 1}, Journal: NewJournal(jb)})
	if err != nil {
		t.Fatal(err)
	}
	srv.incarnation = 42 // the seal response and the commit request carry it
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	tapLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tapLn.Close()
	var tap wireTap
	go tap.serve(tapLn, ln.Addr().String())

	ft, err := datatype.Vector(4, 2, 8, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	v := &View{Disp: 3, Enc: datatype.Encode(ft)}
	list := func() []storage.Segment {
		return []storage.Segment{{Off: 0, Buf: []byte("ab")}, {Off: 300, Buf: []byte("cde")}}
	}
	c := NewClient(tapLn.Addr().String(), ClientOptions{})
	defer c.Close()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	writes := func() {
		_, err := c.WriteAt([]byte("hello"), 70)
		must(err)
		must(c.WriteAtv(list()))
		must(viewWrite(c, v, 1, 7, []byte("UVWXYZ")))
	}

	writes() // direct; the view write registers the view first
	_, err = c.ReadAt(make([]byte, 16), 64)
	must(err)
	must(c.ReadAtv(list()))
	_, err = c.ViewReadRange(v, 0, 8, [][]byte{make([]byte, 8)})
	must(err)
	c.Size()
	must(c.Truncate(400))
	must(c.Sync())
	_, err = c.ServerStats()
	must(err)

	c.BeginEpoch(5)
	writes() // staged
	must(c.SealEpoch(5))
	must(c.CommitEpoch(5))
	journal := jb.Bytes()
	c.BeginEpoch(6)
	_, err = c.WriteAt([]byte("gone"), 9)
	must(err)
	must(c.AbortEpoch(6))

	tap.mu.Lock()
	got := strings.Join(tap.frames, "\n") + fmt.Sprintf("\njournal %x\n", journal)
	tap.mu.Unlock()
	const path = "testdata/wire_golden.txt"
	if *updateGolden {
		must(os.MkdirAll("testdata", 0o755))
		must(os.WriteFile(path, []byte(got), 0o644))
	}
	want, err := os.ReadFile(path)
	must(err)
	if !bytes.Equal([]byte(got), want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d of the wire differs from %s:\n got %s\nwant %s", i+1, path, gl[i], wl[i])
			}
		}
		t.Fatalf("the wire carried %d lines, %s has %d", len(gl), path, len(wl))
	}
}
