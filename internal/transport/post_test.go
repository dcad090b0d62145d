package transport

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/pool"
	"repro/internal/testutil"
)

// Posted receives (Post): a posting takes the earliest message of its
// (src, tag) that nothing has matched, on both fabrics alike, and over TCP
// the link reader reads the frame from the socket into the posted
// segments.

// gappedSegs cuts n segments of ln bytes out of a buffer with a byte of
// gap after each, so that a test sees both what a fill wrote and what it
// must not have touched.  The buffer starts out as 0xEE.
func gappedSegs(n, ln int) (buf []byte, segs [][]byte) {
	buf = bytes.Repeat([]byte{0xEE}, n*(ln+1))
	segs = make([][]byte, n)
	for i := range segs {
		segs[i] = buf[i*(ln+1) : i*(ln+1)+ln]
	}
	return buf, segs
}

// wantFilled checks that buf, cut by gappedSegs, holds payload in its
// segments and 0xEE in its gaps.
func wantFilled(t *testing.T, label string, buf, payload []byte, ln int) {
	t.Helper()
	want := bytes.Repeat([]byte{0xEE}, len(buf))
	for i := 0; len(payload) > 0; i++ {
		payload = payload[copy(want[i*(ln+1):i*(ln+1)+ln], payload):]
	}
	if !bytes.Equal(buf, want) {
		t.Errorf("%s: the posted buffer holds the wrong bytes, or a gap was written", label)
	}
}

func payloadOf(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i*13)
	}
	return p
}

// TestPostFillsInPlace: a posting made before its message is sent — by
// the peer, and by the rank itself, whose self-send over TCP bypasses the
// link reader — completes with the payload in the posted segments: Recv
// returns the completion with Len and no Data, and the next message of the
// pair, not posted, arrives as an owned payload behind it.  Both fabrics,
// for each byte send.
func TestPostFillsInPlace(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	fabs, stop := fabrics(t, nil)
	defer stop()
	const nSegs, ln = 5, 300
	sends := map[string]func(ep Transport, dst int, data []byte) error{
		"Send":       func(ep Transport, dst int, data []byte) error { return ep.Send(dst, 5, data) },
		"SendNoCopy": func(ep Transport, dst int, data []byte) error { return ep.SendNoCopy(dst, 5, bytes.Clone(data)) },
		"SendSegs": func(ep Transport, dst int, data []byte) error {
			return ep.SendSegs(dst, 5, [][]byte{data[:7], data[7:]})
		},
	}
	for name, eps := range fabs {
		for sname, send := range sends {
			for dst := range eps {
				label := name + "/" + sname + "/to " + string(rune('0'+dst))
				buf, segs := gappedSegs(nSegs, ln)
				if err := eps[dst].Post(0, 5, segs); err != nil {
					t.Fatal(err)
				}
				first, second := payloadOf(nSegs*ln, 1), payloadOf(40, 2)
				if err := send(eps[0], dst, first); err != nil {
					t.Fatal(err)
				}
				if err := send(eps[0], dst, second); err != nil {
					t.Fatal(err)
				}
				m, err := eps[dst].Recv(0, 5)
				if err != nil || m.Data != nil || m.Len != len(first) {
					t.Fatalf("%s: first message %+v, %v; want a completion of %d bytes", label, m, err, len(first))
				}
				wantFilled(t, label, buf, first, ln)
				if m, err := eps[dst].Recv(0, 5); err != nil || !bytes.Equal(m.Data, second) || m.Len != 0 {
					t.Errorf("%s: second message %+v, %v; want the unposted payload", label, m, err)
				}
			}
		}
	}
}

// TestPostTakesQueuedMessage: a message that arrived before anything was
// posted for it is queued; a posting takes it — the earliest of its pair —
// by copying it at once, its completion keeps the message's place in the
// queue, and the checked pool gets the payload back over TCP.
func TestPostTakesQueuedMessage(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	bp := pool.NewChecked()
	fabs, stop := fabrics(t, bp)
	defer stop()
	for name, eps := range fabs {
		for dst := range eps {
			first, second := payloadOf(1000, 3), payloadOf(1000, 4)
			for _, p := range [][]byte{first, second} {
				if err := eps[0].Send(dst, 5, p); err != nil {
					t.Fatal(err)
				}
			}
			if err := eps[0].Send(dst, 6, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := eps[dst].Recv(0, 6); err != nil { // FIFO: both have landed
				t.Fatal(err)
			}
			if err := eps[0].Flush(); err != nil { // the sender's writer has recycled what it sent
				t.Fatal(err)
			}
			puts := bp.Stats().Puts
			buf, segs := gappedSegs(4, 250)
			if err := eps[dst].Post(0, 5, segs); err != nil {
				t.Fatal(err)
			}
			wantFilled(t, name, buf, first, 250) // at once, before any Recv
			if m, err := eps[dst].Recv(0, 5); err != nil || m.Data != nil || m.Len != len(first) {
				t.Errorf("%s to %d: %+v, %v; want the first message's completion", name, dst, m, err)
			}
			if m, err := eps[dst].Recv(0, 5); err != nil || !bytes.Equal(m.Data, second) {
				t.Errorf("%s to %d: %+v, %v; want the second message", name, dst, m, err)
			}
			if got := bp.Stats().Puts - puts; name == "tcp" && got != 1 {
				t.Errorf("tcp to %d: %d payloads went back to the pool; want the copied one", dst, got)
			}
		}
	}
}

// TestPostWaitsForFrameInFlight: a frame a link reader is reading into a
// pooled payload counts as queued.  A posting made meanwhile waits for it
// to land and takes it; the next frame of the pair then finds no posting.
// Were it otherwise, window k+1's frame would fill window k's posting.
func TestPostWaitsForFrameInFlight(t *testing.T) {
	ib := newInbox()
	if _, posted := ib.arrive(1, 5); posted {
		t.Fatal("a frame matched a posting nobody made")
	}
	seg := make([]byte, 4)
	done := make(chan error, 1)
	go func() {
		_, err := ib.post(1, 5, [][]byte{seg})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("Post returned (%v) while a frame of its pair was in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	ib.land(Message{Src: 1, Tag: 5, Data: []byte("abcd")}, true)
	if err := <-done; err != nil || string(seg) != "abcd" {
		t.Fatalf("Post: %v, segment %q; want the frame that was in flight", err, seg)
	}
	if _, posted := ib.arrive(1, 5); posted {
		t.Fatal("frame k+1 matched the posting frame k took")
	}
	ib.land(Message{Src: 1, Tag: 5, Data: []byte("efgh")}, true)
	if m, _ := ib.take(1, 5); m.Len != 4 || m.Data != nil {
		t.Errorf("first taken %+v; want the completion", m)
	}
	if m, _ := ib.take(1, 5); string(m.Data) != "efgh" {
		t.Errorf("second taken %+v; want frame k+1", m)
	}
}

// TestPostLengthMismatch: a message whose length differs from its posting
// fails the receiving endpoint with ErrFrame and writes none of the
// posting — a frame read off the wire, a self-send, a loopback delivery,
// and a queued message a posting takes.
func TestPostLengthMismatch(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	for _, c := range []struct {
		name   string
		dst    int
		queued bool
	}{{"peer", 1, false}, {"self", 0, false}, {"queued", 1, true}} {
		fabs, stop := fabrics(t, nil)
		for name, eps := range fabs {
			label := name + "/" + c.name
			buf, segs := gappedSegs(2, 8)
			if c.queued {
				if err := eps[0].Send(c.dst, 5, payloadOf(20, 5)); err != nil {
					t.Fatal(err)
				}
				if err := eps[0].Send(c.dst, 6, nil); err != nil {
					t.Fatal(err)
				}
				if _, err := eps[c.dst].Recv(0, 6); err != nil {
					t.Fatal(err)
				}
				if err := eps[c.dst].Post(0, 5, segs); err == nil || !strings.Contains(err.Error(), "frame of 20 bytes for a posting of 16") {
					t.Errorf("%s: Post err = %v; want the length mismatch", label, err)
				}
			} else {
				if err := eps[c.dst].Post(0, 5, segs); err != nil {
					t.Fatal(err)
				}
				eps[0].Send(c.dst, 5, payloadOf(20, 5)) // a self-send reports the failure too
			}
			if _, err := eps[c.dst].Recv(0, 5); err == nil || !strings.Contains(err.Error(), "frame of 20 bytes for a posting of 16") {
				t.Errorf("%s: Recv err = %v; want the endpoint failed by the length mismatch", label, err)
			}
			wantFilled(t, label, buf, nil, 8)
		}
		stop()
	}
}

// TestDrainTagWithdrawsPostings: DrainTag withdraws a posting nothing has
// matched, on both fabrics, so that a later message of its pair arrives as
// a payload and the segments stay untouched; and it waits for a posting a
// link reader is filling, counting its completion, so that nothing writes
// a posted segment after it returns.
func TestDrainTagWithdrawsPostings(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	fabs, stop := fabrics(t, nil)
	defer stop()
	for name, eps := range fabs {
		buf, segs := gappedSegs(1, 32)
		if err := eps[1].Post(0, 9, segs); err != nil {
			t.Fatal(err)
		}
		if n, b := eps[1].DrainTag(9); n != 0 || b != 0 {
			t.Errorf("%s: drained %d messages of %d bytes; want none", name, n, b)
		}
		late := payloadOf(32, 6)
		if err := eps[0].Send(1, 9, late); err != nil {
			t.Fatal(err)
		}
		if m, err := eps[1].Recv(0, 9); err != nil || !bytes.Equal(m.Data, late) {
			t.Errorf("%s: %+v, %v; want the late message as a payload", name, m, err)
		}
		wantFilled(t, name, buf, nil, 32)
	}

	ib := newInbox()
	seg := make([]byte, 4)
	if _, err := ib.post(1, 9, [][]byte{seg}); err != nil {
		t.Fatal(err)
	}
	p, posted := ib.arrive(1, 9)
	if !posted {
		t.Fatal("the frame did not take the posting")
	}
	type drained struct {
		n int
		b int64
	}
	done := make(chan drained, 1)
	go func() {
		n, b := ib.drain(9)
		done <- drained{n, b}
	}()
	select {
	case d := <-done:
		t.Fatalf("DrainTag returned %+v while a posting was being filled", d)
	case <-time.After(20 * time.Millisecond):
	}
	copy(p.segs[0], "wxyz") // the reader's fill
	ib.land(Message{Src: 1, Tag: 9, Len: 4, posted: true}, true)
	if d := <-done; d.n != 1 || d.b != 4 {
		t.Errorf("drained %+v; want the filled posting's completion of 4 bytes", d)
	}
}

// TestPostedFramesOverTheWire: frames larger than the link reader's
// buffer, into postings of more segments than one readv takes, posted
// ahead of them and followed by unposted messages of the same pair, arrive
// whole and in order — straight from the socket by readv on a plain link,
// and segment by segment through a ChaosConn, which is no syscall.Conn,
// with its latency spikes.
func TestPostedFramesOverTheWire(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	chaos := WireChaosConfig{Seed: 7, PSpike: 0.3, SpikeMin: 20 * time.Microsecond, SpikeMax: 200 * time.Microsecond}.SpikeOnly()
	for name, cfg := range map[string]TCPConfig{
		"readv":       {Deadline: 10 * time.Second},
		"per-segment": {Deadline: 10 * time.Second, WireChaos: &chaos},
	} {
		eps, err := NewLocalTCPWorld(2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dialWorld(t, eps)
		const rounds, nSegs, ln = 3, 1500, 97 // 142 KiB a frame, 1500 iovecs
		bufs := make([][]byte, rounds)
		want := make([][]byte, rounds)
		for r := range bufs {
			var segs [][]byte
			bufs[r], segs = gappedSegs(nSegs, ln)
			if err := eps[1].Post(0, 5, segs); err != nil {
				t.Fatal(err)
			}
			want[r] = payloadOf(nSegs*ln, byte(r))
		}
		for _, n := range []int{nSegs * ln, 100} { // the frames the postings take, then three more
			for r := range want {
				if err := eps[0].Send(1, 5, want[r][:n]); err != nil {
					t.Fatal(err)
				}
			}
		}
		for r := range want {
			if m, err := eps[1].Recv(0, 5); err != nil || m.Len != len(want[r]) {
				t.Fatalf("%s: round %d: %+v, %v; want a completion", name, r, m, err)
			}
			wantFilled(t, name, bufs[r], want[r], ln)
		}
		for r := range want {
			if m, err := eps[1].Recv(0, 5); err != nil || !bytes.Equal(m.Data, want[r][:100]) {
				t.Fatalf("%s: message %d after the postings: %+v, %v; want its payload", name, r, m, err)
			}
		}
		closeWorld(eps)
	}
}
