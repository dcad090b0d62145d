package storage

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// flaky is a Backend whose reads fail with a configured error a set
// number of times before succeeding, for driving the retry policy.
type flaky struct {
	*Mem
	failLeft int
	err      error
	attempts int
}

func (f *flaky) ReadAt(p []byte, off int64) (int, error) {
	f.attempts++
	if f.failLeft > 0 {
		f.failLeft--
		return 0, f.err
	}
	return f.Mem.ReadAt(p, off)
}

func (f *flaky) WriteAt(p []byte, off int64) (int, error) {
	f.attempts++
	if f.failLeft > 0 {
		f.failLeft--
		return 0, f.err
	}
	return f.Mem.WriteAt(p, off)
}

// noSleep replaces the backoff sleep so retry tests run instantly.
func noSleep(r *Resilient) { r.sleep = func(time.Duration) {} }

func TestResilientRetriesTransient(t *testing.T) {
	base := NewMem()
	if _, err := base.WriteAt([]byte("payload!"), 0); err != nil {
		t.Fatal(err)
	}
	fl := &flaky{Mem: base, failLeft: 3, err: fmt.Errorf("blip: %w", ErrTransient)}
	r := NewResilient(fl, ResilientConfig{})
	noSleep(r)

	got := make([]byte, 8)
	if _, err := r.ReadAt(got, 0); err != nil {
		t.Fatalf("read failed despite retry budget: %v", err)
	}
	if string(got) != "payload!" {
		t.Errorf("read %q after retries", got)
	}
	if fl.attempts != 4 {
		t.Errorf("%d attempts, want 4 (1 + 3 retries)", fl.attempts)
	}
	retries, exhausted := r.RetryStats()
	if retries != 3 || exhausted != 0 {
		t.Errorf("RetryStats = (%d, %d), want (3, 0)", retries, exhausted)
	}
}

func TestResilientPermanentPassthrough(t *testing.T) {
	cause := fmt.Errorf("disk gone: %w", ErrPermanent)
	fl := &flaky{Mem: NewMem(), failLeft: 100, err: cause}
	r := NewResilient(fl, ResilientConfig{})
	noSleep(r)

	_, err := r.ReadAt(make([]byte, 4), 0)
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want the permanent cause unchanged", err)
	}
	if fl.attempts != 1 {
		t.Errorf("%d attempts on a permanent error, want 1", fl.attempts)
	}
	retries, _ := r.RetryStats()
	if retries != 0 {
		t.Errorf("retried a permanent error %d times", retries)
	}
}

func TestResilientExhaustion(t *testing.T) {
	fl := &flaky{Mem: NewMem(), failLeft: 1 << 30, err: fmt.Errorf("flap: %w", ErrTransient)}
	r := NewResilient(fl, ResilientConfig{MaxRetries: 5})
	noSleep(r)

	_, err := r.WriteAt([]byte("x"), 0)
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want to keep the transient classification", err)
	}
	if fl.attempts != 6 {
		t.Errorf("%d attempts, want 6 (1 + MaxRetries)", fl.attempts)
	}
	retries, exhausted := r.RetryStats()
	if retries != 5 || exhausted != 1 {
		t.Errorf("RetryStats = (%d, %d), want (5, 1)", retries, exhausted)
	}
}

// TestResilientDeterministicSchedule: equal seeds must produce equal
// retry delay schedules — that is what makes a chaos run replayable.
func TestResilientDeterministicSchedule(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		base := NewMem()
		if _, err := base.WriteAt([]byte{1}, 0); err != nil {
			t.Fatal(err)
		}
		fl := &flaky{Mem: base, failLeft: 6, err: fmt.Errorf("flap: %w", ErrTransient)}
		r := NewResilient(fl, ResilientConfig{Seed: seed})
		var delays []time.Duration
		r.sleep = func(d time.Duration) { delays = append(delays, d) }
		if _, err := r.ReadAt(make([]byte, 1), 0); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return delays
	}
	a, b := schedule(42), schedule(42)
	if len(a) != 6 || len(a) != len(b) {
		t.Fatalf("schedules %v / %v, want 6 delays each", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at retry %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Delays grow with the exponential envelope: each is within
	// [backoff/2, backoff], and the envelope doubles.
	base := ResilientConfig{}
	base.fill()
	backoff := base.BaseBackoff
	for i, d := range a {
		if d < backoff/2 || d > backoff {
			t.Errorf("retry %d delay %v outside [%v, %v]", i, d, backoff/2, backoff)
		}
		if backoff < base.MaxBackoff {
			backoff *= 2
			if backoff > base.MaxBackoff {
				backoff = base.MaxBackoff
			}
		}
	}
}

// TestResilientRepairsChaosShortRead: a short read reported transient
// must be repaired by the reissue (positioned reads are idempotent).
func TestResilientRepairsChaosShortRead(t *testing.T) {
	base := NewMem()
	want := []byte("0123456789abcdef")
	if _, err := base.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	// ShortRead probability 1 would never terminate; find a seed whose
	// first draw injects and later draw passes using probability 0.5.
	ch := NewChaos(3, base, ChaosConfig{ShortRead: 0.5})
	r := NewResilient(ch, ResilientConfig{MaxRetries: 64})
	noSleep(r)
	got := make([]byte, len(want))
	n, err := r.ReadAt(got, 0)
	if err != nil || n != len(want) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if string(got) != string(want) {
		t.Errorf("read %q, want %q", got, want)
	}
}
