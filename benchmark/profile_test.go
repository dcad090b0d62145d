package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/fotf.(*Program).copyRange":   "fotf",
		"repro/internal/core.(*File).WriteAtAll":     "core",
		"repro/internal/ioserver.(*Server).serve":    "ioserver",
		"repro/internal/obs.(*Counter).Add":          "other",
		"repro/internal/core/sub.F":                  "core",
		"main.(*reference).time":                     "bench",
		"repro/benchmark.burn":                       "bench",
		"runtime.memmove":                            "",
		"internal/poll.(*FD).Write":                  "",
		"repro/internal/transport.(*FrameConn).Send": "transport",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var burnSink uint64

// burn spins for d in a function of this package, so that a profile of it
// is charged to bench.
func burn(d time.Duration) {
	var sum uint64 // local: under -race every write to a global is a call the profiler cannot unwind
	for start := time.Now(); time.Since(start) < d; {
		for i := uint64(0); i < 1e6; i++ {
			sum += i * i
		}
	}
	burnSink = sum
}

// TestCPUSharesOfARealProfile decodes a profile the standard library
// wrote: the shares sum to 1 and the spinning function's layer leads.
func TestCPUSharesOfARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling is already on: %v", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 || len(shares) != len(cpuLayers) {
		t.Errorf("shares %v sum to %v over %d buckets, want 1 over %d", shares, sum, len(shares), len(cpuLayers))
	}
	if shares["bench"] < 0.8 {
		t.Errorf("a loop in this package got %.2f of the CPU, want nearly all: %v", shares["bench"], shares)
	}
}

func TestCPUSharesRejectsGarbage(t *testing.T) {
	if _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Error("garbage decoded as a profile")
	}
	var empty bytes.Buffer
	if err := pprof.StartCPUProfile(&empty); err != nil {
		t.Skipf("CPU profiling is already on: %v", err)
	}
	pprof.StopCPUProfile()
	if _, err := cpuShares(empty.Bytes()); err == nil {
		t.Error("a profile without samples gave shares")
	}
}
