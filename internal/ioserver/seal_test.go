package ioserver

import (
	"bytes"
	"testing"

	"repro/internal/storage"
)

// mountPair is two mounts of one one-stripe server, each under
// storage.Resilient, as OS-process ranks hold them: each stages epoch 7,
// A at [0, 4) and B at [8, 12) of the stripe.
type mountPair struct {
	stripe *storage.Mem
	srv    *Server
	addr   string
	a, b   *storage.Resilient
	plain  []*Striped
}

func newMountPair(t *testing.T) *mountPair {
	t.Helper()
	m := &mountPair{stripe: storage.NewMem()}
	m.srv, m.addr = serveStripe(t, "127.0.0.1:0", m.stripe)
	for _, r := range []**storage.Resilient{&m.a, &m.b} {
		s, err := NewStriped(1<<20, []string{m.addr}, ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		m.plain = append(m.plain, s)
		*r = storage.NewResilient(s, storage.ResilientConfig{})
	}
	for i, mount := range []*storage.Resilient{m.a, m.b} {
		mount.EpochBegin(7)
		if _, err := mount.WriteAt(bytes.Repeat([]byte{'A' + byte(i)}, 4), int64(8*i)); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// bounce restarts the server: its recovery drops the uncommitted epoch.
func (m *mountPair) bounce(t *testing.T) {
	t.Helper()
	m.srv.Close()
	m.srv, _ = serveStripe(t, m.addr, m.stripe)
}

func (m *mountPair) seal(t *testing.T, mount *storage.Resilient) uint64 {
	t.Helper()
	stamp, err := mount.EpochSealStamp(7)
	if err != nil {
		t.Fatal(err)
	}
	return stamp
}

// image is the stripe's first 12 bytes.
func (m *mountPair) image() []byte {
	got := make([]byte, 12)
	m.stripe.ReadAt(got, 0)
	return got
}

// TestSealStampsNameTheIncarnation is the schedule of a torn commit:
// mounts A and B of one server stage one epoch, A seals, the server
// restarts (dropping the epoch), and B seals — its reconnect replays B's
// stage log, so B's seal passes against the new incarnation.  Committed
// now, the epoch would have lost A's bytes, and neither seal nor commit
// can tell: each vouches for its own mount.  What tells is the seals'
// stamps, which differ; a caller that commits only when they agree
// re-seals A, whose reconnect replays A's log, and then commits both.
func TestSealStampsNameTheIncarnation(t *testing.T) {
	want := []byte("AAAA\x00\x00\x00\x00BBBB")

	t.Run("commit on B's seal alone", func(t *testing.T) {
		m := newMountPair(t)
		m.seal(t, m.a)
		m.bounce(t)
		m.seal(t, m.b)
		if err := m.b.EpochCommit(7); err != nil {
			t.Fatal(err)
		}
		if got := m.image(); !bytes.Equal(got, []byte("\x00\x00\x00\x00\x00\x00\x00\x00BBBB")) {
			t.Fatalf("stripe holds %q: the schedule no longer loses A's stages, and this test no longer shows the hole", got)
		}
		m.a.EpochEnd(7)
	})

	t.Run("commit when the stamps agree", func(t *testing.T) {
		m := newMountPair(t)
		sa := m.seal(t, m.a)
		m.bounce(t)
		sb := m.seal(t, m.b)
		if sa == sb {
			t.Fatal("A and B sealed against different incarnations of the server under one stamp")
		}
		if sa = m.seal(t, m.a); sa != sb {
			t.Fatalf("A's re-seal stamps %x, B's seal %x", sa, sb)
		}
		if sb2 := m.seal(t, m.b); sb2 != sb {
			t.Fatalf("B's stamp moved from %x to %x with no restart", sb, sb2)
		}
		if err := m.b.EpochCommit(7); err != nil {
			t.Fatal(err)
		}
		m.a.EpochEnd(7)
		if got := m.image(); !bytes.Equal(got, want) {
			t.Fatalf("stripe holds %q, want %q", got, want)
		}
	})
}

// TestStageLogLendsTheBytes: inside an epoch the client keeps the
// caller's bytes by reference, not a copy — a replay after a server
// bounce sends what the caller's buffers hold then — a write whose round
// trip redials and runs the replay first still sends its own parts, and
// once the epoch has ended the client keeps no reference to any of them.
func TestStageLogLendsTheBytes(t *testing.T) {
	check := checkFrames(t)
	stripe := storage.NewMem()
	srv, addr := serveStripe(t, "127.0.0.1:0", stripe)
	c := NewClient(addr, ClientOptions{})
	defer c.Close()
	p, q := []byte("lent"), []byte("also")
	c.BeginEpoch(1)
	if _, err := c.WriteAt(p, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAtv([]storage.Segment{{Off: 8, Buf: q}}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	serveStripe(t, addr, stripe)
	copy(p, "LENT") // against the contract, to show what the log holds
	copy(q, "ALSO")
	tail := []storage.Segment{{Off: 12, Buf: []byte("tw")}, {Off: 16, Buf: []byte("o parts")}}
	// The first attempt finds the connection dead; the second redials, and
	// the replay runs inside its round trip.
	if err := c.WriteAtv(tail); !storage.IsTransient(err) {
		t.Fatalf("write over the dead connection: %v", err)
	}
	if err := c.WriteAtv(tail); err != nil {
		t.Fatal(err)
	}
	commit(t, c, 1)
	got := make([]byte, 23)
	stripe.ReadAt(got, 0)
	if want := []byte("LENT\x00\x00\x00\x00ALSOtw\x00\x00o parts"); !bytes.Equal(got, want) {
		t.Fatalf("replayed epoch wrote %q, want %q", got, want)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.parts) != 0 || cap(c.parts) == 0 || c.parts[:cap(c.parts)][0] != nil {
		t.Fatal("the client still references a write's bytes after the epoch ended")
	}
	check()
}
