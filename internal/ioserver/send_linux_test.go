//go:build linux

package ioserver

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// The send path: a raw read over a file-backed stripe leaves the file by
// sendfile, its response streamed by the connection's FrameConn.

// sendImage is the stripe file's contents in these tests.
const sendImage = 200 << 10

// openStripeFile returns a stripe file holding sendImage seeded bytes.
func openStripeFile(t *testing.T) *storage.File {
	t.Helper()
	fb, err := storage.OpenFile(filepath.Join(t.TempDir(), "stripe"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fb.Close() })
	img := make([]byte, sendImage)
	rand.New(rand.NewSource(5)).Read(img)
	if _, err := fb.WriteAt(img, 0); err != nil {
		t.Fatal(err)
	}
	return fb
}

// sendLists are offset lists within the stripe, across its end, past it,
// and with empty entries.
var sendLists = [][]storage.Extent{
	{{Off: 0, N: sendImage}},
	{{Off: 100, N: 7}, {Off: 64 << 10, N: 70 << 10}, {Off: 3, N: 0}, {Off: 9, N: 1}},
	{{Off: sendImage - 50, N: 4096}},
	{{Off: sendImage + 10, N: 33}, {Off: 5, N: 5}},
}

// checkReads reads every list of sendLists through c, by ReadAtv and by
// ReadAt, and requires the bytes storage.ReadAtv and storage.ReadFull
// give on the file itself, zeros past its end.
func checkReads(t *testing.T, c storage.Backend, fb *storage.File) {
	t.Helper()
	for _, list := range sendLists {
		got, want := make([]storage.Segment, len(list)), make([]storage.Segment, len(list))
		for i, e := range list {
			got[i] = storage.Segment{Off: e.Off, Buf: make([]byte, e.N)}
			want[i] = storage.Segment{Off: e.Off, Buf: make([]byte, e.N)}
		}
		if err := storage.ReadAtv(c, got); err != nil {
			t.Fatalf("readv %v: %v", list, err)
		}
		if err := storage.ReadAtv(fb, want); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !bytes.Equal(got[i].Buf, want[i].Buf) {
				t.Fatalf("readv %v: entry %d differs from the file's", list, i)
			}
		}
		for _, e := range list {
			p, q := make([]byte, e.N), make([]byte, e.N)
			n, err := c.ReadAt(p, e.Off)
			if err := storage.ReadFull(fb, q, e.Off); err != nil {
				t.Fatal(err)
			}
			if n != len(p) || err != nil || !bytes.Equal(p, q) {
				t.Fatalf("read %+v: (%d, %v), or bytes other than the file's", e, n, err)
			}
		}
	}
}

// TestSendPathReads: opReadv answers from a file-backed stripe with the
// bytes the file holds, over TCP and, through a server whose connections
// are ChaosConns (which take the buffered path), the same.
func TestSendPathReads(t *testing.T) {
	fb := openStripeFile(t)
	srv, addr := serveStripe(t, "127.0.0.1:0", fb)
	if srv.snd == nil {
		t.Fatal("a file-backed stripe does not send")
	}
	c := NewClient(addr, ClientOptions{})
	defer c.Close()
	checkReads(t, c, fb)
	if st := srv.Stats(); st.RawReads == 0 || st.BytesRead == 0 {
		t.Errorf("the server counted %+v", st)
	}

	srv2, err := New(Config{Backend: fb, Geom: storage.StripeGeom{Unit: 1 << 20, Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(chaosListener{ln})
	defer srv2.Close()
	c2 := NewClient(ln.Addr().String(), ClientOptions{})
	defer c2.Close()
	checkReads(t, c2, fb)
}

// chaosListener wraps each connection it accepts in a ChaosConn that
// only delays.
type chaosListener struct{ net.Listener }

func (l chaosListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cfg := &transport.WireChaosConfig{Seed: 1, PSpike: 0.3, SpikeMin: time.Microsecond, SpikeMax: 20 * time.Microsecond}
	return transport.NewChaosConn(conn, cfg, "server"), nil
}

// TestSendRefusedKeepsConnection: a read the stripe refuses before any
// byte of it is sent — a Faulty fault — answers opErr, the client's
// connection stays up, and the next read succeeds on it.
func TestSendRefusedKeepsConnection(t *testing.T) {
	fb := openStripeFile(t)
	faulty := storage.NewFaulty(fb)
	_, addr := serveStripe(t, "127.0.0.1:0", faulty)
	c := NewClient(addr, ClientOptions{})
	defer c.Close()
	p := make([]byte, 4096)
	if _, err := c.ReadAt(p, 0); err != nil {
		t.Fatal(err)
	}
	fc := c.fc
	faulty.FailReads(1)
	if err := c.ReadAtv([]storage.Segment{{Off: 0, Buf: p}}); err == nil || storage.IsTransient(err) {
		t.Fatalf("a refused readv: %v, want the injected permanent fault", err)
	}
	if _, err := c.ReadAt(p, 0); err == nil || storage.IsTransient(err) {
		t.Fatalf("a refused read: %v, want the injected permanent fault", err)
	}
	faulty.Heal()
	checkReads(t, c, fb)
	if c.fc != fc {
		t.Error("a refused read cost the client its connection")
	}
}

// cutSender is a stripe whose next send, once armed, stops after cutAt
// bytes with a transient error.
type cutSender struct {
	*storage.File
	armed atomic.Bool
}

const cutAt = 3000

func (s *cutSender) SendTo(w io.Writer, exts []storage.Extent) (int64, error) {
	if !s.armed.CompareAndSwap(true, false) {
		return s.File.SendTo(w, exts)
	}
	var head []storage.Extent
	for left := int64(cutAt); left > 0 && len(exts) > 0; exts = exts[1:] {
		e := exts[0]
		e.N = min(e.N, left)
		head, left = append(head, e), left-e.N
	}
	n, err := s.File.SendTo(w, head)
	if err == nil {
		err = fmt.Errorf("cut after %d bytes: %w", n, storage.ErrTransient)
	}
	return n, err
}

// TestSendCutDropsConnection: a send that fails after its response began
// to go out cuts the connection; the client sees a transient failure —
// the connection closing under it, not its deadline passing — and a
// Resilient client's reissue, over a new connection, returns the right
// bytes.
func TestSendCutDropsConnection(t *testing.T) {
	fb := openStripeFile(t)
	cs := &cutSender{File: fb}
	_, addr := serveStripe(t, "127.0.0.1:0", cs)
	c := NewClient(addr, ClientOptions{Timeout: 5 * time.Second})
	defer c.Close()
	p := make([]byte, 4096)
	if _, err := c.ReadAt(p, 0); err != nil {
		t.Fatal(err)
	}
	fc := c.fc

	cs.armed.Store(true)
	got := storage.Segment{Off: 1000, Buf: make([]byte, 64<<10)}
	err := c.ReadAtv([]storage.Segment{got})
	if !storage.IsTransient(err) || strings.Contains(err.Error(), "timeout") {
		t.Fatalf("a cut readv: %v, want the transient failure of a closed connection", err)
	}
	if c.fc == fc {
		t.Error("the client kept the connection a cut response came on")
	}

	cs.armed.Store(true)
	r := storage.NewResilient(c, storage.ResilientConfig{})
	if err := r.ReadAtv([]storage.Segment{got}); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, len(got.Buf))
	if _, err := fb.ReadAt(want, got.Off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Buf, want) {
		t.Fatal("the reissued read returned other bytes than the file holds")
	}
	if retries, _ := r.RetryStats(); retries != 1 {
		t.Errorf("the read healed after %d retries, want 1", retries)
	}
	checkReads(t, c, fb)
}

// TestReadvMemoryIndependentOfSize: a 64 MiB readv over a file-backed
// stripe allocates under 64 KiB on the server (and the client, which
// reads into the caller's buffer): the response buffer does not grow to
// the bytes the list names.
func TestReadvMemoryIndependentOfSize(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const size = 64 << 20
	fb, err := storage.OpenFile(filepath.Join(t.TempDir(), "stripe"))
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	if err := fb.Truncate(size); err != nil {
		t.Fatal(err)
	}
	if _, err := fb.WriteAt([]byte("head"), 0); err != nil {
		t.Fatal(err)
	}
	_, addr := serveStripe(t, "127.0.0.1:0", fb)
	c := NewClient(addr, ClientOptions{})
	defer c.Close()
	buf := make([]byte, size)
	// A short readv warms the connection: what the long one then
	// allocates is what it costs for its size, once.
	if err := c.ReadAtv([]storage.Segment{{Off: 0, Buf: buf[:4096]}, {Off: 8192, Buf: buf[4096:8192]}}); err != nil {
		t.Fatal(err)
	}
	segs := []storage.Segment{{Off: 0, Buf: buf[:size/2]}, {Off: size / 2, Buf: buf[size/2:]}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := c.ReadAtv(segs); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if string(buf[:4]) != "head" {
		t.Fatalf("read %q at the stripe's start", buf[:4])
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Fatalf("a %d MiB readv allocates %d bytes", size>>20, n)
	}
}

// TestSendErrorsAreClassified: the errors of the send path keep their
// class across the wire, so that a client's Resilient retries exactly
// what it would retry locally.
func TestSendErrorsAreClassified(t *testing.T) {
	fb := openStripeFile(t)
	chaos := storage.NewChaos(3, fb, storage.ChaosConfig{TransientRead: 1})
	_, addr := serveStripe(t, "127.0.0.1:0", chaos)
	c := NewClient(addr, ClientOptions{})
	defer c.Close()
	err := c.ReadAtv([]storage.Segment{{Off: 0, Buf: make([]byte, 10)}})
	if !storage.IsTransient(err) || errors.Is(err, storage.ErrPermanent) {
		t.Fatalf("a transient stripe fault arrived as %v", err)
	}
}
