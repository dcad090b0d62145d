package transport

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

// dialWorld brings up every endpoint of a fabric concurrently.
func dialWorld(t *testing.T, eps []Transport) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(eps))
	for i, ep := range eps {
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
	eps, err := NewLocalTCPWorld(n, TCPConfig{Deadline: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	dialWorld(t, eps)
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
		st := ep.Stats()
		s.FramesSent += st.FramesSent
		s.FramesRecv += st.FramesRecv
		s.BytesSent += st.BytesSent
		s.BytesRecv += st.BytesRecv
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
	eps, err := NewLocalTCPWorld(2, TCPConfig{Deadline: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	dialWorld(t, eps)
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
	eps, err := NewLocalTCPWorld(2, TCPConfig{Deadline: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	dialWorld(t, eps)
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
	n, bytes := eps[1].DrainTag(9)
	if n != 5 || bytes != 50 {
		t.Fatalf("drained %d msgs / %d bytes, want 5 / 50", n, bytes)
	}
}

func TestTCPLinkLossFailsEndpoint(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	eps, err := NewLocalTCPWorld(2, TCPConfig{Deadline: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	dialWorld(t, eps)
	defer closeWorld(eps)

	// Rank 1 dies without quiescing: rank 0 must see a link failure, not
	// a clean close and not a hang.
	eps[1].Close()
	_, err = eps[0].Recv(1, 1)
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
	eps, err := NewLocalTCPWorld(3, TCPConfig{Deadline: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	dialWorld(t, eps)

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
	eps, err := NewLocalTCPWorld(2, TCPConfig{Deadline: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	dialWorld(t, eps)
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
	if st.Flushes == 0 || st.Flushes > st.FramesSent {
		t.Fatalf("Flushes = %d (frames %d)", st.Flushes, st.FramesSent)
	}
	t.Logf("coalescing: %d frames in %d flushes", st.FramesSent, st.Flushes)
}
