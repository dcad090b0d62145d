package transport

import (
	"runtime/debug"
	"testing"

	"repro/internal/pool"
	"repro/internal/testutil"
)

// Allocation regression for the exchange hot path: a warm SendNoCopy →
// Recv → Put round-trip must not allocate on loopback, and must stay
// under a small constant over TCP (frame headers, deadline timers, and
// pool bookkeeping are allowed; per-message payload copies are not).

// allocRoundTrips runs r pool-sourced round-trips from eps[0] to
// eps[1] and back, returning payloads to the pool.
func allocRoundTrips(t *testing.T, eps []Transport, r int, size int) float64 {
	t.Helper()
	return testing.AllocsPerRun(r, func() {
		for step := 0; step < 2; step++ {
			src, dst := step, 1-step
			buf := pool.Global.Get(size)
			if err := eps[src].SendNoCopy(dst, 7, buf); err != nil {
				t.Errorf("send: %v", err)
				return
			}
			m, err := eps[dst].Recv(src, 7)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			pool.Global.Put(m.Data)
		}
	})
}

// TestLoopbackRoundTripZeroAlloc: over loopback the pooled payload is
// the only moving part, and it travels by reference.
func TestLoopbackRoundTripZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	eps := NewLoopback(2)
	defer closeWorld(eps)

	// Warm-up grows the inbox queues and fills the pool class.
	allocRoundTrips(t, eps, 8, 4096)
	if a := allocRoundTrips(t, eps, 20, 4096); a > 0 {
		t.Errorf("loopback round-trip allocates %.2f per iteration, want 0", a)
	}
}

// TestTCPRoundTripAllocBound: over sockets each message costs a frame
// header read, a pooled payload, and channel hand-offs; the bound
// catches any reintroduced per-message copy or per-flush buffer.
func TestTCPRoundTripAllocBound(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	eps := tcpWorld(t, 2)
	defer closeWorld(eps)

	allocRoundTrips(t, eps, 8, 4096)
	const maxAllocs = 16 // per iteration = two messages; copies would add O(1) each but large B/op
	if a := allocRoundTrips(t, eps, 20, 4096); a > maxAllocs {
		t.Errorf("TCP round-trip allocates %.2f per iteration, want <= %d", a, maxAllocs)
	}
}
