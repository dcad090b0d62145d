package mpi

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestWatchdogDetectsDeadlock arms the stall watchdog over a world
// whose ranks wait on messages nobody sends; Run must return ErrStalled
// with a per-rank diagnostic instead of hanging.
func TestWatchdogDetectsDeadlock(t *testing.T) {
	_, err := RunWithOptions(2, RunOptions{StallTimeout: 50 * time.Millisecond}, func(p *Proc) {
		if p.Rank() == 0 {
			p.Recv(1, 5)
		} else {
			p.Recv(0, 6)
		}
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	msg := err.Error()
	for _, want := range []string{"rank 0", "rank 1", "Recv(src=1, tag=5)", "Recv(src=0, tag=6)"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic %q missing %q", msg, want)
		}
	}
}

// TestWatchdogForensicsIncludesTrace: when a trace collector is wired
// into the world, the stall diagnostic must name the last span each
// rank began, not just the packed wait state — that is what tells the
// operator which collective phase the world died in.
func TestWatchdogForensicsIncludesTrace(t *testing.T) {
	c := trace.NewCollector(64)
	_, err := RunWithOptions(2, RunOptions{StallTimeout: 50 * time.Millisecond, Trace: c}, func(p *Proc) {
		if p.Rank() == 0 {
			p.Recv(1, 5)
		} else {
			p.Recv(0, 6)
		}
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	msg := err.Error()
	for _, want := range []string{"last span: mpi.recv", "unfinished"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic %q missing %q", msg, want)
		}
	}
}

// TestWatchdogExitedRank: a rank that returned can never unblock its
// peers; the watchdog must treat it as permanently waiting and still
// detect the stall.
func TestWatchdogExitedRank(t *testing.T) {
	_, err := RunWithOptions(2, RunOptions{StallTimeout: 50 * time.Millisecond}, func(p *Proc) {
		if p.Rank() == 0 {
			p.Recv(1, 7) // rank 1 exits without sending
		}
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "rank 1 exited") {
		t.Errorf("diagnostic %q missing exited rank", msg)
	}
}

// TestWatchdogBarrierStall: one rank in Barrier, the other in a Recv
// that can never complete — the diagnostic must name both wait kinds.
func TestWatchdogBarrierStall(t *testing.T) {
	_, err := RunWithOptions(2, RunOptions{StallTimeout: 50 * time.Millisecond}, func(p *Proc) {
		if p.Rank() == 0 {
			p.Barrier()
		} else {
			p.Recv(0, 9)
		}
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "blocked in Barrier") || !strings.Contains(msg, "Recv(src=0, tag=9)") {
		t.Errorf("diagnostic %q missing wait kinds", msg)
	}
}

// TestWatchdogNoFalsePositive runs a healthy but slow ping-pong world
// for several multiples of the stall timeout: steady progress must keep
// the watchdog quiet even though each rank spends most of its time
// blocked in Recv.
func TestWatchdogNoFalsePositive(t *testing.T) {
	const timeout = 20 * time.Millisecond
	deadline := time.Now().Add(5 * timeout)
	_, err := RunWithOptions(2, RunOptions{StallTimeout: timeout}, func(p *Proc) {
		peer := 1 - p.Rank()
		if p.Rank() == 0 {
			for time.Now().Before(deadline) {
				p.Send(peer, 1, []byte{1})
				p.Recv(peer, 1)
			}
			p.Send(peer, 2, nil) // stop
			return
		}
		for {
			_, _, tag := p.Recv(peer, AnyTag)
			if tag == 2 {
				return
			}
			time.Sleep(timeout / 3) // slow, but progressing
			p.Send(peer, 1, []byte{1})
		}
	})
	if err != nil {
		t.Fatalf("healthy world reported %v", err)
	}
}

// TestWatchdogDisabled: without a StallTimeout no watchdog state is
// maintained and a normal world runs as before.
func TestWatchdogDisabled(t *testing.T) {
	_, err := Run(2, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, []byte("x"))
		} else {
			p.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDrainTag: only matching-tag messages are discarded, and order of
// the rest is preserved.
func TestDrainTag(t *testing.T) {
	_, err := Run(2, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, []byte("a"))
			p.Send(1, 2, []byte("b"))
			p.Send(1, 1, []byte("c"))
			p.Send(1, 3, []byte("d"))
			p.Barrier()
			return
		}
		p.Barrier() // all four messages delivered (buffered sends + barrier)
		if n := p.DrainTag(1, nil); n != 2 {
			t.Errorf("drained %d messages with tag 1, want 2", n)
		}
		if n := p.DrainTag(1, nil); n != 0 {
			t.Errorf("second drain removed %d, want 0", n)
		}
		if data, _, _ := p.Recv(0, 2); string(data) != "b" {
			t.Errorf("tag 2 payload = %q, want b", data)
		}
		if data, _, _ := p.Recv(0, 3); string(data) != "d" {
			t.Errorf("tag 3 payload = %q, want d", data)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
