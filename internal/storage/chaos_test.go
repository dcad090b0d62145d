package storage

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"
)

// chaosTrace runs a fixed op sequence against a fresh seeded Chaos over
// a pre-filled Mem and records each outcome, for determinism checks.
func chaosTrace(seed int64) ([]string, ChaosStats) {
	base := NewMem()
	if _, err := base.WriteAt(bytes.Repeat([]byte{0xAB}, 4096), 0); err != nil {
		panic(err)
	}
	c := NewChaos(seed, base, ChaosConfig{
		TransientRead:  0.2,
		TransientWrite: 0.2,
		permanentRead:  0.05,
		permanentWrite: 0.05,
		ShortRead:      0.1,
		TornWrite:      0.1,
	})
	c.sleep = func(time.Duration) {}
	var trace []string
	buf := make([]byte, 64)
	for i := 0; i < 200; i++ {
		var n int
		var err error
		if i%2 == 0 {
			n, err = c.ReadAt(buf, int64(i%32)*64)
		} else {
			n, err = c.WriteAt(buf, int64(i%32)*64)
		}
		trace = append(trace, fmt.Sprintf("%d:%v", n, err))
	}
	return trace, c.Stats()
}

// TestChaosDeterministic: the fault schedule is a pure function of the
// seed for a fixed operation sequence.
func TestChaosDeterministic(t *testing.T) {
	t1, s1 := chaosTrace(99)
	t2, s2 := chaosTrace(99)
	if s1 != s2 {
		t.Fatalf("same seed, different stats: %+v vs %+v", s1, s2)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("same seed diverged at op %d: %q vs %q", i, t1[i], t2[i])
		}
	}
	if s1.Transients+s1.Permanents+s1.ShortReads+s1.TornWrites == 0 {
		t.Error("200 ops at these probabilities injected nothing; schedule is not exercising faults")
	}
	t3, _ := chaosTrace(100)
	same := 0
	for i := range t1 {
		if t1[i] == t3[i] {
			same++
		}
	}
	if same == len(t1) {
		t.Error("different seeds produced identical traces")
	}
}

// TestChaosClassification: injected errors carry the right transient/
// permanent class for the Resilient policy to act on.
func TestChaosClassification(t *testing.T) {
	base := NewMem()
	if _, err := base.WriteAt(make([]byte, 128), 0); err != nil {
		t.Fatal(err)
	}
	perm := NewChaos(1, base, ChaosConfig{permanentRead: 1, permanentWrite: 1})
	if _, err := perm.ReadAt(make([]byte, 8), 0); err == nil || IsTransient(err) {
		t.Errorf("permanent read fault classified wrong: %v", err)
	}
	if _, err := perm.WriteAt(make([]byte, 8), 0); err == nil || IsTransient(err) {
		t.Errorf("permanent write fault classified wrong: %v", err)
	}
	trans := NewChaos(1, base, ChaosConfig{TransientRead: 1, TransientWrite: 1})
	if _, err := trans.ReadAt(make([]byte, 8), 0); !IsTransient(err) {
		t.Errorf("transient read fault classified wrong: %v", err)
	}
	if _, err := trans.WriteAt(make([]byte, 8), 0); !IsTransient(err) {
		t.Errorf("transient write fault classified wrong: %v", err)
	}
}

// TestChaosShortRead: a short read returns a true prefix of the data
// with a transient error naming the truncation.
func TestChaosShortRead(t *testing.T) {
	base := NewMem()
	want := []byte("abcdefghijklmnop")
	if _, err := base.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	c := NewChaos(5, base, ChaosConfig{ShortRead: 1})
	p := make([]byte, len(want))
	n, err := c.ReadAt(p, 0)
	if !IsTransient(err) {
		t.Fatalf("short read err = %v, want transient", err)
	}
	if n <= 0 || n >= len(want) {
		t.Fatalf("short read n = %d, want a strict prefix of %d", n, len(want))
	}
	if !bytes.Equal(p[:n], want[:n]) {
		t.Errorf("prefix %q does not match data %q", p[:n], want[:n])
	}
}

// TestChaosTornWrite: a torn write persists a strict prefix only.
func TestChaosTornWrite(t *testing.T) {
	base := NewMem()
	c := NewChaos(5, base, ChaosConfig{TornWrite: 1})
	p := []byte("abcdefghijklmnop")
	n, err := c.WriteAt(p, 0)
	if !IsTransient(err) {
		t.Fatalf("torn write err = %v, want transient", err)
	}
	if n <= 0 || n >= len(p) {
		t.Fatalf("torn write n = %d, want a strict prefix of %d", n, len(p))
	}
	got := memBytes(base)
	if !bytes.Equal(got, p[:n]) {
		t.Errorf("persisted %q, want exactly the %d-byte prefix %q", got, n, p[:n])
	}
}

// TestChaosLatencySpike: spikes delay but do not fail.
func TestChaosLatencySpike(t *testing.T) {
	base := NewMem()
	c := NewChaos(5, base, ChaosConfig{LatencySpike: 1, MaxLatency: time.Millisecond})
	var slept time.Duration
	c.sleep = func(d time.Duration) { slept += d }
	if _, err := c.WriteAt([]byte("x"), 0); err != nil {
		t.Fatalf("spiked write failed: %v", err)
	}
	if c.Stats().LatencySpikes == 0 {
		t.Error("no spike recorded at probability 1")
	}
	if slept <= 0 || slept > time.Millisecond {
		t.Errorf("spike slept %v, want within (0, MaxLatency]", slept)
	}
}

// TestChaosTransientOnlyResilient is the single-threaded version of the
// survivability guarantee: under TransientOnly chaos, a Resilient
// wrapper makes every operation succeed and the end state match a
// fault-free mirror exactly.
func TestChaosTransientOnlyResilient(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		base := NewMem()
		mirror := NewMem()
		c := NewChaos(seed, base, TransientOnly())
		c.sleep = func(time.Duration) {}
		r := NewResilient(c, ResilientConfig{Seed: seed + 1})
		r.sleep = func(time.Duration) {}

		for i := 0; i < 300; i++ {
			off := int64((i * 37) % 2048)
			data := bytes.Repeat([]byte{byte(i)}, 1+(i%64))
			if i%3 == 0 {
				n, err := r.WriteAt(data, off)
				if err != nil || n != len(data) {
					t.Fatalf("seed %d op %d: resilient write = %d, %v", seed, i, n, err)
				}
				if _, err := mirror.WriteAt(data, off); err != nil {
					t.Fatal(err)
				}
			} else {
				got := make([]byte, len(data))
				wantBuf := make([]byte, len(data))
				_, err := r.ReadAt(got, off)
				if err != nil && err != io.EOF {
					t.Fatalf("seed %d op %d: resilient read: %v", seed, i, err)
				}
				if err := ReadFull(mirror, wantBuf, off); err != nil {
					t.Fatal(err)
				}
				// Compare only the delivered prefix on EOF-short reads.
				if err == io.EOF {
					continue
				}
				if !bytes.Equal(got, wantBuf) {
					t.Fatalf("seed %d op %d: read diverged from mirror", seed, i)
				}
			}
		}
		if !bytes.Equal(memBytes(base), memBytes(mirror)) {
			t.Errorf("seed %d: final contents diverged from fault-free mirror", seed)
		}
		if c.Stats().Permanents != 0 {
			t.Errorf("seed %d: TransientOnly injected %d permanent faults", seed, c.Stats().Permanents)
		}
		if _, exhausted := r.RetryStats(); exhausted != 0 {
			t.Errorf("seed %d: %d ops exhausted their retry budget", seed, exhausted)
		}
	}
}
