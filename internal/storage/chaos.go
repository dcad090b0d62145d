package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// ChaosConfig sets the per-operation injection probabilities of a Chaos
// backend.  All probabilities are independent and evaluated in the order
// latency spike → permanent → transient → short read / torn write; a
// probability ≤ 0 disables that fault class.
type ChaosConfig struct {
	// TransientRead / TransientWrite inject a recoverable failure: the
	// operation does nothing and returns an error wrapping ErrTransient.
	TransientRead, TransientWrite float64
	// ShortRead delivers only a prefix of the requested bytes, with a
	// transient error reporting the truncation.
	ShortRead float64
	// TornWrite persists only a prefix of the buffer, with a transient
	// error — the classic partially-applied write of a crashed server.
	TornWrite float64
	// LatencySpike stalls the operation for a random duration up to
	// MaxLatency (default 1ms) before it proceeds.
	LatencySpike float64
	MaxLatency   time.Duration

	// permanentRead / permanentWrite inject a non-recoverable failure
	// wrapping ErrPermanent: this package's tests' seam, since a run
	// injects only what a Resilient wrapper rides out (TransientOnly).
	permanentRead, permanentWrite float64
}

// TransientOnly returns a configuration injecting only recoverable
// faults — transient errors, short reads, torn writes, latency spikes —
// so that a Resilient wrapper rides out every injection.
func TransientOnly() ChaosConfig {
	return ChaosConfig{
		TransientRead:  0.08,
		TransientWrite: 0.08,
		ShortRead:      0.04,
		TornWrite:      0.04,
		LatencySpike:   0.02,
		MaxLatency:     200 * time.Microsecond,
	}
}

// ChaosStats counts the faults a Chaos backend injected.
type ChaosStats struct {
	Transients, Permanents int64
	ShortReads, TornWrites int64
	LatencySpikes          int64
}

// Chaos wraps a Backend with seeded probabilistic fault injection,
// generalizing the count-based Faulty: every failure sequence is fully
// reproducible from the seed, which is what lets the chaos harness and
// CI replay an exact fault schedule.  Safe for concurrent use; the
// draw order (and therefore the schedule) depends on operation
// interleaving, so reproducibility is per-(seed, interleaving).
type Chaos struct {
	layer
	cfg ChaosConfig
	tr  *trace.Tracer // optional fault-instant recording (see SetTracer)

	mu  sync.Mutex
	rng *rand.Rand

	sleep func(time.Duration) // test seam

	transients, permanents atomic.Int64
	shortReads, tornWrites atomic.Int64
	latencySpikes          atomic.Int64
}

// NewChaos wraps b with fault injection drawn from a PRNG seeded with
// seed.
func NewChaos(seed int64, b Backend, cfg ChaosConfig) *Chaos {
	if cfg.MaxLatency <= 0 {
		cfg.MaxLatency = time.Millisecond
	}
	c := &Chaos{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(seed)),
		sleep: time.Sleep,
	}
	c.layer = layer{Backend: b, ic: c}
	return c
}

// Stats returns a snapshot of the injection counters.
func (c *Chaos) Stats() ChaosStats {
	return ChaosStats{
		Transients:    c.transients.Load(),
		Permanents:    c.permanents.Load(),
		ShortReads:    c.shortReads.Load(),
		TornWrites:    c.tornWrites.Load(),
		LatencySpikes: c.latencySpikes.Load(),
	}
}

// hit draws one Bernoulli trial with probability p.
func (c *Chaos) hit(p float64) bool {
	if p <= 0 {
		return false
	}
	c.mu.Lock()
	v := c.rng.Float64()
	c.mu.Unlock()
	return v < p
}

// cut draws a strict prefix length in [1, n).
func (c *Chaos) cut(n int) int {
	c.mu.Lock()
	v := 1 + c.rng.Intn(n-1)
	c.mu.Unlock()
	return v
}

func (c *Chaos) maybeSpike(off int64) {
	if !c.hit(c.cfg.LatencySpike) {
		return
	}
	c.latencySpikes.Add(1)
	c.mu.Lock()
	d := time.Duration(c.rng.Int63n(int64(c.cfg.MaxLatency)))
	c.mu.Unlock()
	c.instant(trace.PhaseChaosSpike, off, 0, "stalled %v", d)
	c.sleep(d)
}

// intercept is the one draw sequence every data op goes through, in
// its direction's probabilities: latency spike → permanent → transient →
// partial delivery.  A short read or torn write moves a strict prefix of
// the buffer or the batch and reports a transient error; view transfers
// are all-or-nothing on the wire and get none.  Control ops pass: the
// injection lives on the data an epoch stages, not on its seal or commit.
func (c *Chaos) intercept(o op, next *layer) result {
	var (
		dir, partial      string
		perm, trans, part float64
		parts             *atomic.Int64
		partPhase         trace.Phase
	)
	switch o.kind.dir() {
	case dirRead:
		dir, perm, trans = "read", c.cfg.permanentRead, c.cfg.TransientRead
		partial, part, parts, partPhase = "short read", c.cfg.ShortRead, &c.shortReads, trace.PhaseChaosShortRead
	case dirWrite:
		dir, perm, trans = "write", c.cfg.permanentWrite, c.cfg.TransientWrite
		partial, part, parts, partPhase = "torn write", c.cfg.TornWrite, &c.tornWrites, trace.PhaseChaosTornWrite
	default:
		return next.exec(o)
	}
	c.maybeSpike(o.off)
	if c.hit(perm) {
		return c.fail(o, dir, ErrPermanent)
	}
	if c.hit(trans) {
		return c.fail(o, dir, ErrTransient)
	}
	if total := o.size(); !o.kind.view() && total > 1 && c.hit(part) {
		parts.Add(1)
		n := int64(c.cut(int(total)))
		res := next.exec(o.prefix(n))
		if res.err != nil {
			return res
		}
		c.instant(partPhase, o.off, int(n), "%d of %d bytes", n, total)
		res.err = fmt.Errorf("storage: chaos %s (%d of %d bytes) at offset %d: %w",
			partial, n, total, o.off, ErrTransient)
		return res
	}
	return next.exec(o)
}

// fail counts and reports an injected failure of o in the given class
// (ErrPermanent or ErrTransient): the instant and the error of its kind.
// A view transfer's offset is a view-data offset.
func (c *Chaos) fail(o op, dir string, sentinel error) result {
	count, ph, class := &c.transients, trace.PhaseChaosTransient, "transient"
	if sentinel == ErrPermanent {
		count, ph, class = &c.permanents, trace.PhaseChaosPermanent, "permanent"
	}
	count.Add(1)
	n := int(o.size())
	switch o.kind {
	case opViewRead, opViewWrite:
		c.instant(trace.PhaseChaosViewOp, o.off, n, "view %s fault (%s)", dir, class)
		return result{err: fmt.Errorf("storage: chaos view %s fault at data offset %d: %w", dir, o.off, sentinel)}
	case opReadv, opWritev, opSend:
		c.instant(ph, o.off, n, "vectored %s fault", dir)
	default:
		c.instant(ph, o.off, n, "%s fault", dir)
	}
	return result{err: fmt.Errorf("storage: chaos %s fault at offset %d: %w", dir, o.off, sentinel)}
}
