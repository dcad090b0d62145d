package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultBufSize is the per-rank ring capacity when none is given.
const DefaultBufSize = 4096

// Collector is the world-level trace state: it hands out per-rank
// Tracers sharing one epoch clock, and after a run merges their rings
// and per-phase aggregates into a Chrome trace export, a per-rank imbalance
// summary, and stall/fault forensics.  All methods are safe on a nil
// receiver, so a nil *Collector is the disabled state that flows
// through configuration structs.
type Collector struct {
	epoch   time.Time
	clock   func() int64
	bufSize int

	mu      sync.Mutex
	tracers map[int]*Tracer
}

// NewCollector creates a collector whose tracers hold bufSize events
// each (0 selects DefaultBufSize).
func NewCollector(bufSize int) *Collector {
	if bufSize <= 0 {
		bufSize = DefaultBufSize
	}
	c := &Collector{epoch: time.Now(), bufSize: bufSize, tracers: make(map[int]*Tracer)}
	c.clock = func() int64 { return time.Since(c.epoch).Nanoseconds() }
	return c
}

// Tracer returns the tracer of one rank, creating it on first use.
// Safe to call concurrently from every rank goroutine.
func (c *Collector) Tracer(rank int) *Tracer {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tracers[rank]
	if t == nil {
		t = newTracer(rank, c.bufSize, c.clock)
		c.tracers[rank] = t
	}
	return t
}

// Storage returns the shared storage backend's tracer (pseudo-rank
// RankStorage, rendered as its own track).
func (c *Collector) Storage() *Tracer { return c.Tracer(RankStorage) }

// ranks lists the tracked ranks in ascending order (storage last).
func (c *Collector) ranks() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.tracers))
	for r := range c.tracers {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if (a == RankStorage) != (b == RankStorage) {
			return b == RankStorage // real ranks first
		}
		return a < b
	})
	return out
}

// Events merges every rank's buffered events, sorted by start time.
func (c *Collector) Events() []Event {
	if c == nil {
		return nil
	}
	var out []Event
	for _, r := range c.ranks() {
		out = append(out, c.Tracer(r).Events()...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Dropped sums the ring overwrites across all ranks.
func (c *Collector) Dropped() int64 {
	if c == nil {
		return 0
	}
	var n int64
	for _, r := range c.ranks() {
		n += c.Tracer(r).Dropped()
	}
	return n
}

// Summary renders the per-phase breakdown: world totals and counts and
// latency quantiles from the ranks' merged per-phase aggregates (which
// never drop, unlike the rings), and the per-rank imbalance — which rank
// spent the most time in the phase and what share of the world total
// that is (1/nranks is perfect balance, 1.0 is one rank doing all the
// work).
func (c *Collector) Summary() string {
	if c == nil {
		return ""
	}
	type phaseAgg struct {
		ph      Phase
		world   HistData
		maxNs   int64
		maxRank int
	}
	byPhase := make(map[Phase]*phaseAgg)
	var nRanks int
	for _, r := range c.ranks() {
		if r == RankStorage {
			continue
		}
		nRanks++
		for ph, d := range c.Tracer(r).Phases() {
			a := byPhase[ph]
			if a == nil {
				a = &phaseAgg{ph: ph}
				byPhase[ph] = a
			}
			a.world.Merge(d)
			if d.Sum > a.maxNs {
				a.maxNs, a.maxRank = d.Sum, r
			}
		}
	}
	aggs := make([]*phaseAgg, 0, len(byPhase))
	for _, a := range byPhase {
		aggs = append(aggs, a)
	}
	sort.Slice(aggs, func(i, j int) bool {
		if aggs[i].world.Sum != aggs[j].world.Sum {
			return aggs[i].world.Sum > aggs[j].world.Sum
		}
		return aggs[i].ph < aggs[j].ph
	})

	var b strings.Builder
	fmt.Fprintf(&b, "trace summary: %d ranks, %d events buffered (%d dropped)\n",
		nRanks, len(c.Events()), c.Dropped())
	fmt.Fprintf(&b, "  %-22s %10s %8s %9s %9s %9s   %s\n",
		"phase", "total", "count", "mean", "p50", "p99", "slowest rank (share)")
	us := func(ns int64) string { return time.Duration(ns).Round(time.Microsecond).String() }
	for _, a := range aggs {
		w := a.world
		share := 0.0
		if w.Sum > 0 {
			share = float64(a.maxNs) / float64(w.Sum)
		}
		fmt.Fprintf(&b, "  %-22s %10s %8d %9s %9s %9s   rank %d (%2.0f%%)\n",
			a.ph, us(w.Sum), w.Count, us(w.Mean()), us(w.Quantile(0.5)), us(w.Quantile(0.99)),
			a.maxRank, share*100)
	}
	return b.String()
}

// Forensics renders the last perRank events of every rank, plus its
// in-flight span — the post-mortem attached to stalls and collective
// faults.
func (c *Collector) Forensics(perRank int) string {
	if c == nil {
		return ""
	}
	var b strings.Builder
	for _, r := range c.ranks() {
		t := c.Tracer(r)
		if r == RankStorage {
			fmt.Fprintf(&b, "storage backend:\n")
		} else {
			fmt.Fprintf(&b, "rank %d:\n", r)
		}
		evs := t.Recent(perRank)
		if len(evs) == 0 {
			b.WriteString("  (no events)\n")
		}
		for _, ev := range evs {
			fmt.Fprintf(&b, "  %s\n", ev)
		}
		if cur, ok := t.Current(); ok && cur.Dur < 0 {
			fmt.Fprintf(&b, "  in-flight: %s begun +%v",
				cur.Phase, time.Duration(cur.Start).Round(time.Microsecond))
			if cur.Window != NoWindow {
				fmt.Fprintf(&b, " @%d", cur.Window)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
