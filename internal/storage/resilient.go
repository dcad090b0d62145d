package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// ResilientConfig tunes the retry policy of a Resilient backend.  The
// zero value selects defaults suitable for the in-process backends.
type ResilientConfig struct {
	// MaxRetries is the number of reissues after the first attempt
	// (default 8).
	MaxRetries int
	// BaseBackoff is the delay before the first retry (default 50µs);
	// each subsequent retry doubles it up to MaxBackoff (default 5ms).
	// Half of every delay is uniformly jittered to decorrelate the
	// retries of concurrent window I/O.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// OpDeadline bounds the total time budget of one operation including
	// its retries; 0 means unbounded.  An operation gives up early when
	// the next backoff would overrun the deadline.
	OpDeadline time.Duration
	// Seed seeds the jitter source, making retry schedules reproducible
	// (default 1).
	Seed int64
}

func (c *ResilientConfig) fill() {
	if c.MaxRetries <= 0 {
		c.MaxRetries = 8
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 50 * time.Microsecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Resilient wraps a Backend with bounded retry of transient failures:
// exponential backoff with jitter between attempts, an optional per-op
// deadline, and immediate pass-through of permanent errors.  Reads and
// writes are reissued whole, which is sound because Backend operations
// are idempotent (positioned reads, positioned full-buffer writes), so a
// short read or torn write that was reported as a transient error is
// simply repaired by the successful reissue.  Safe for concurrent use
// when the wrapped backend is.
type Resilient struct {
	layer
	cfg ResilientConfig
	tr  *trace.Tracer // optional retry-instant recording (see SetTracer)

	mu  sync.Mutex
	rng *rand.Rand

	sleep func(time.Duration) // test seam

	retries   atomic.Int64
	exhausted atomic.Int64
}

// NewResilient wraps b with the given retry policy.
func NewResilient(b Backend, cfg ResilientConfig) *Resilient {
	cfg.fill()
	r := &Resilient{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		sleep: time.Sleep,
	}
	r.layer = layer{Backend: b, ic: r}
	return r
}

// RetryStats reports the retries performed and the operations abandoned
// (retry budget or deadline exhausted) since creation.
func (r *Resilient) RetryStats() (retries, exhausted int64) {
	return r.retries.Load(), r.exhausted.Load()
}

func (r *Resilient) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	r.mu.Lock()
	j := time.Duration(r.rng.Int63n(int64(d)))
	r.mu.Unlock()
	return j
}

// instant records a retry event on the trace, skipping the detail
// formatting entirely when tracing is off.
func (r *Resilient) instant(ph trace.Phase, off int64, format string, args ...any) {
	if !r.tr.Enabled() {
		return
	}
	r.tr.Instant(ph, off, 0, fmt.Sprintf(format, args...))
}

// intercept runs the op, retrying transient failures per the policy.
// Every op is one retry unit and is reissued whole: a batch (a reissue
// repairs any partial delivery), a view transfer or registration (a
// reconnect-and-reissue repairs a dropped server connection), an epoch
// seal, commit or abort (idempotent against the servers; the reissue
// replays the client's stage log first, which is the healing the seal
// exists to trigger).  ErrEpochRetry is not transient and passes straight
// through to the protocol driver.  A send is the exception: once it has
// written a byte it cannot be reissued, because what it wrote is already
// on its way, and its failure passes through as it came.
func (r *Resilient) intercept(o op, next *layer) result {
	var deadline time.Time
	if r.cfg.OpDeadline > 0 {
		deadline = time.Now().Add(r.cfg.OpDeadline)
	}
	backoff := r.cfg.BaseBackoff
	for attempt := 0; ; attempt++ {
		res := next.exec(o)
		err := res.err
		if err == nil || !IsTransient(err) || (o.kind == opSend && res.n > 0) {
			return res
		}
		if attempt >= r.cfg.MaxRetries {
			r.exhausted.Add(1)
			r.instant(trace.PhaseRetryExhausted, o.off, "giving up after %d attempts: %v", attempt+1, err)
			res.err = fmt.Errorf("storage: giving up after %d attempts: %w", attempt+1, err)
			return res
		}
		delay := backoff/2 + r.jitter(backoff/2)
		if backoff < r.cfg.MaxBackoff {
			backoff *= 2
			if backoff > r.cfg.MaxBackoff {
				backoff = r.cfg.MaxBackoff
			}
		}
		if !deadline.IsZero() && time.Now().Add(delay).After(deadline) {
			r.exhausted.Add(1)
			r.instant(trace.PhaseRetryExhausted, o.off, "deadline %v exceeded after %d attempts: %v",
				r.cfg.OpDeadline, attempt+1, err)
			res.err = fmt.Errorf("storage: deadline %v exceeded after %d attempts: %w",
				r.cfg.OpDeadline, attempt+1, err)
			return res
		}
		r.retries.Add(1)
		r.instant(trace.PhaseRetry, o.off, "attempt %d after %v: %v", attempt+1, delay, err)
		r.sleep(delay)
	}
}
