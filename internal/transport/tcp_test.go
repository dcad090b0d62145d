package transport

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/counter"
	"repro/internal/testutil"
)

// tcpWorld brings up a local TCP world of n ranks, every endpoint
// concurrently, each with a 10 s write and handshake deadline.
func tcpWorld(t *testing.T, n int) []Transport {
	t.Helper()
	eps, err := NewLocalTCPWorld(n, TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(eps))
	for i, ep := range eps {
		ep.(*TCP).SetDeadline(10 * time.Second)
		wg.Add(1)
		go func(i int, ep Transport) {
			defer wg.Done()
			if err := ep.Listen(); err != nil {
				errs[i] = err
				return
			}
			errs[i] = ep.Dial()
		}(i, ep)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	return eps
}

func closeWorld(eps []Transport) {
	for _, ep := range eps {
		ep.Quiesce()
	}
	for _, ep := range eps {
		ep.Close()
	}
}

func TestTCPExchange(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	const n = 4
	eps := tcpWorld(t, n)
	defer closeWorld(eps)

	// Every rank sends one tagged message to every rank (self included).
	var wg sync.WaitGroup
	fail := make(chan error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep := eps[r]
			for dst := 0; dst < n; dst++ {
				if err := ep.Send(dst, 5, []byte(fmt.Sprintf("from %d to %d", r, dst))); err != nil {
					fail <- err
					return
				}
			}
			got := make(map[int]string)
			for i := 0; i < n; i++ {
				m, err := ep.Recv(AnySource, 5)
				if err != nil {
					fail <- err
					return
				}
				got[m.Src] = string(m.Data)
			}
			for src := 0; src < n; src++ {
				want := fmt.Sprintf("from %d to %d", src, r)
				if got[src] != want {
					fail <- fmt.Errorf("rank %d from %d: %q != %q", r, src, got[src], want)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}

	// Wire accounting: everything except the self-sends crossed sockets.
	var s WireStats
	for _, ep := range eps {
		counter.Add(&s, ep.Stats())
	}
	wantFrames := int64(n * (n - 1))
	if s.FramesSent != wantFrames || s.FramesRecv != wantFrames {
		t.Fatalf("frames sent/recv = %d/%d, want %d", s.FramesSent, s.FramesRecv, wantFrames)
	}
	if s.BytesSent == 0 || s.BytesSent != s.BytesRecv {
		t.Fatalf("wire bytes sent/recv = %d/%d", s.BytesSent, s.BytesRecv)
	}
}

func TestTCPPairFIFOAndWildcards(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	eps := tcpWorld(t, 2)
	defer closeWorld(eps)

	const k = 100
	for i := 0; i < k; i++ {
		tag := 1 + i%3
		if err := eps[0].Send(1, tag, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Per (src, tag) streams arrive in send order.
	seen := map[int]int{1: -1, 2: -1, 3: -1}
	for i := 0; i < k; i++ {
		m, err := eps[1].Recv(0, AnyTag)
		if err != nil {
			t.Fatal(err)
		}
		if int(m.Data[0]) <= seen[m.Tag] {
			t.Fatalf("tag %d: %d after %d", m.Tag, m.Data[0], seen[m.Tag])
		}
		seen[m.Tag] = int(m.Data[0])
	}
}

func TestTCPDrainTag(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	eps := tcpWorld(t, 2)
	defer closeWorld(eps)

	for i := 0; i < 5; i++ {
		if err := eps[0].Send(1, 9, make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eps[0].Send(1, 8, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	// The drain races delivery; take the keeper first so everything has
	// landed (FIFO per pair), then drain.
	if _, err := eps[1].Recv(0, 8); err != nil {
		t.Fatal(err)
	}
	n, bytes := eps[1].DrainTag(9, nil)
	if n != 5 || bytes != 50 {
		t.Fatalf("drained %d msgs / %d bytes, want 5 / 50", n, bytes)
	}
}

func TestTCPLinkLossFailsEndpoint(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	eps := tcpWorld(t, 2)
	defer closeWorld(eps)

	// Rank 1 dies without quiescing: rank 0 must see a link failure, not
	// a clean close and not a hang.
	eps[1].Close()
	_, err := eps[0].Recv(1, 1)
	if err == nil || !strings.Contains(err.Error(), "link to rank 1 lost") {
		t.Fatalf("err = %v, want link-loss cause", err)
	}
	// And the failure is sticky for sends too.
	for deadline := time.Now().Add(2 * time.Second); ; {
		if err := eps[0].Send(1, 1, []byte("x")); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Send kept succeeding after link loss")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTCPQuiescedShutdownIsClean(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	eps := tcpWorld(t, 3)

	// Everyone quiesces, then closes at different times; no endpoint may
	// report a link failure.
	for _, ep := range eps {
		if err := ep.Flush(); err != nil {
			t.Fatal(err)
		}
		ep.Quiesce()
	}
	for _, ep := range eps {
		ep.Close()
		time.Sleep(20 * time.Millisecond) // let peers observe the EOF while others still live
	}
	for r, ep := range eps {
		if _, err := ep.Recv(AnySource, AnyTag); err != ErrClosed {
			t.Fatalf("rank %d: err = %v, want ErrClosed", r, err)
		}
	}
}

func TestTCPCoalescing(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	eps := tcpWorld(t, 2)
	defer closeWorld(eps)

	const k = 200
	for i := 0; i < k; i++ {
		if err := eps[0].Send(1, 1, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		if _, err := eps[1].Recv(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	st := eps[0].Stats()
	if st.FramesSent != k {
		t.Fatalf("FramesSent = %d, want %d", st.FramesSent, k)
	}
	// A burst of sends queues behind the writer's flush in progress, so
	// the writer takes several frames a flush; one flush a frame is the
	// writer's coalescing lost.
	if st.Flushes == 0 || 2*st.Flushes > st.FramesSent {
		t.Fatalf("Flushes = %d (frames %d)", st.Flushes, st.FramesSent)
	}
	t.Logf("coalescing: %d frames in %d flushes", st.FramesSent, st.Flushes)
}

// TestTCPFlushPastClosedLink: Flush waits for every link's queue, also
// when an earlier link is already closed — at shutdown a peer that has
// left closes its link while frames for another peer are still queued.
// The ranks quiesce, rank 1 leaves, and rank 0 sends a frame far larger
// than a socket buffer to rank 2, flushes and closes at once: rank 2 must
// receive the whole frame.
func TestTCPFlushPastClosedLink(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	eps := tcpWorld(t, 3)
	defer closeWorld(eps)

	type result struct {
		m   Message
		err error
	}
	got := make(chan result, 1)
	go func() {
		m, err := eps[2].Recv(0, 7)
		got <- result{m, err}
	}()
	for _, ep := range eps {
		ep.Quiesce()
	}
	eps[1].Close()
	for eps[0].Send(1, 7, nil) == nil { // until rank 0 has seen rank 1 leave
		time.Sleep(time.Millisecond)
	}
	const size = 32 << 20
	if err := eps[0].Send(2, 7, make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	eps[0].Flush() // reports the closed link; must still wait for link 2
	eps[0].Close()
	select {
	case r := <-got:
		if r.err != nil || len(r.m.Data) != size {
			t.Fatalf("rank 2 got %d bytes, err %v; want %d", len(r.m.Data), r.err, size)
		}
	case <-time.After(10 * time.Second):
		// Neither the frame nor the link's loss reached rank 2.
		eps[2].Close()
		<-got
		t.Fatal("rank 2 never received the frame rank 0 flushed")
	}
}

// TestTCPQuiescedRecvNamesLostPeer: on a quiesced endpoint a lost link
// closes only itself, and a Recv naming its peer takes what the link
// delivered, then fails naming the peer instead of waiting for a frame
// no link will deliver.  The endpoint's other links keep working.
func TestTCPQuiescedRecvNamesLostPeer(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	eps := tcpWorld(t, 3)
	defer closeWorld(eps)

	for _, ep := range eps {
		ep.Quiesce()
	}
	if err := eps[1].Send(0, 4, []byte("last")); err != nil {
		t.Fatal(err)
	}
	if err := eps[1].Flush(); err != nil {
		t.Fatal(err)
	}
	eps[1].Close()

	type result struct {
		m   Message
		err error
	}
	got := make(chan result, 2)
	go func() {
		for i := 0; i < 2; i++ {
			m, err := eps[0].Recv(1, 4)
			got <- result{m, err}
		}
	}()
	var rs []result
	for len(rs) < 2 {
		select {
		case r := <-got:
			rs = append(rs, r)
		case <-time.After(5 * time.Second):
			eps[0].Close() // release the blocked Recv
			t.Fatalf("Recv from the lost peer still blocked after 5s (received %d of 2)", len(rs))
		}
	}
	if rs[0].err != nil || string(rs[0].m.Data) != "last" {
		t.Errorf("first Recv: %q, %v; want the frame the peer sent before it left", rs[0].m.Data, rs[0].err)
	}
	if rs[1].err == nil || !strings.Contains(rs[1].err.Error(), "link to rank 1 lost") {
		t.Errorf("second Recv: err = %v; want the lost link named", rs[1].err)
	}
	if err := eps[2].Send(0, 5, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if m, err := eps[0].Recv(2, 5); err != nil || string(m.Data) != "ok" {
		t.Errorf("Recv from rank 2 after rank 1 left: %q, %v", m.Data, err)
	}
}
