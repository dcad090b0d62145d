package transport

import (
	"hash/fnv"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Wire-level fault injection.  A ChaosConn wraps one net.Conn and
// perturbs the byte stream the way a misbehaving network would: latency
// spikes, silently swallowed writes, duplicated frames, corrupted frame
// headers, mid-stream resets, and timed one-directional partitions.  The
// draws come from a rand.Rand seeded with Seed ⊕ fnv64(pair), so a given
// seed reproduces the same fault sequence per connection pair across
// runs (modulo goroutine scheduling of concurrent connections).
//
// Scope notes, honest ones:
//
//   - Corruption targets the frame *header* (the first FrameHeaderSize
//     bytes of a written chunk).  Payload integrity on a real network is
//     the TCP checksum's job; what an application protocol must survive
//     is framing-metadata damage — a wild length, tag, or sequence
//     number — which deterministically desynchronizes the stream and
//     must end in teardown-and-redial, never in silently misdirected
//     data.  That is the recovery path this fault exercises.
//
//   - Every destructive fault (drop, dup, corrupt, reset, partition) is
//     survivable on request/response connections (ioserver clients
//     detect desync by sequence echo and heal by reconnect + stage-log
//     replay), which are the connections it wraps.  The rank fabric's
//     mailbox links assume reliable delivery and are never wrapped.

// WireChaosConfig parameterizes a ChaosConn.  Probabilities are per
// written chunk (one frame, for FrameConn callers); zero disables that
// fault.  The zero value injects nothing.
type WireChaosConfig struct {
	// Seed selects the deterministic fault sequence (with the pair name
	// mixed in, so connections draw independent streams).
	Seed int64
	// PSpike delays a write (and, independently, a read) by a uniform
	// duration in [SpikeMin, SpikeMax] (defaults 200µs and 2ms).
	PSpike             float64
	SpikeMin, SpikeMax time.Duration
	// PDrop silently swallows a written chunk (reported as sent).
	PDrop float64
	// PDup writes a chunk twice.
	PDup float64
	// PCorrupt flips one bit in the chunk's frame header before sending.
	PCorrupt float64
	// PReset closes the connection instead of writing.
	PReset float64
	// PPartition opens a one-directional outbound blackhole: this chunk
	// and everything written for PartitionFor (default 20ms) is swallowed.
	PPartition   float64
	PartitionFor time.Duration
	// Stats, when non-nil, counts injected faults.
	Stats *WireChaosStats
}

// Enabled reports whether the config injects anything (nil-safe).
func (c *WireChaosConfig) Enabled() bool {
	if c == nil {
		return false
	}
	return c.PSpike > 0 || c.PDrop > 0 || c.PDup > 0 || c.PCorrupt > 0 ||
		c.PReset > 0 || c.PPartition > 0
}

// WireChaosStats counts injected faults across all connections sharing
// the config, which write them through sync/atomic: read it with
// counter.Load, and allocate it on its own or as the first field of its
// owner, where it is 64-bit aligned on every platform.
type WireChaosStats struct {
	Spikes, Drops, Dups, Corrupts, Resets, Partitions int64
}

// ChaosConn is a net.Conn injecting the configured faults on writes
// (and latency spikes on reads).  The inbound direction is otherwise
// untouched: wrapping one side of a connection perturbs that side's
// requests while keeping the peer's responses canonical, which is the
// useful asymmetry for request/response protocols.
type ChaosConn struct {
	net.Conn
	cfg   *WireChaosConfig
	stats *WireChaosStats // cfg.Stats, or one of the conn's own

	mu        sync.Mutex
	rng       *rand.Rand
	partUntil time.Time // outbound partition window end
}

// chaosConnNonce distinguishes successive connections of the same pair:
// a redial must draw a fresh fault stream, or a fault that kills the
// connection at a fixed point in the reconnect sequence (say, the
// stage-log replay's first frame) recurs identically on every retry and
// a recoverable fault becomes a deterministic livelock.
var chaosConnNonce atomic.Int64

// NewChaosConn wraps conn.  pair names the connection for the seed mix
// (e.g. "client→127.0.0.1:7001").
func NewChaosConn(conn net.Conn, cfg *WireChaosConfig, pair string) *ChaosConn {
	h := fnv.New64a()
	h.Write([]byte(pair))
	seed := cfg.Seed ^ int64(h.Sum64()) ^ chaosConnNonce.Add(1)<<32
	stats := cfg.Stats
	if stats == nil {
		stats = new(WireChaosStats)
	}
	return &ChaosConn{
		Conn:  conn,
		cfg:   cfg,
		stats: stats,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// fault is one write's drawn verdict.
type fault int

const (
	faultNone fault = iota
	faultDrop
	faultDup
	faultCorrupt
	faultReset
	faultPartition
)

// draw rolls this write's fate under the rng lock.  At most one
// destructive fault fires per write (first match wins, rarest first),
// plus an independent spike.
func (cc *ChaosConn) draw() (f fault, spike time.Duration) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.cfg.PSpike > 0 && cc.rng.Float64() < cc.cfg.PSpike {
		lo, hi := cc.cfg.SpikeMin, cc.cfg.SpikeMax
		if lo <= 0 {
			lo = 200 * time.Microsecond
		}
		if hi <= lo {
			hi = lo + 2*time.Millisecond
		}
		spike = lo + time.Duration(cc.rng.Int63n(int64(hi-lo)))
	}
	if !cc.partUntil.IsZero() {
		if time.Now().Before(cc.partUntil) {
			return faultPartition, spike
		}
		cc.partUntil = time.Time{} // window over
	}
	switch r := cc.rng.Float64(); {
	case r < cc.cfg.PReset:
		return faultReset, spike
	case r < cc.cfg.PReset+cc.cfg.PPartition:
		d := cc.cfg.PartitionFor
		if d <= 0 {
			d = 20 * time.Millisecond
		}
		cc.partUntil = time.Now().Add(d)
		return faultPartition, spike
	case r < cc.cfg.PReset+cc.cfg.PPartition+cc.cfg.PDrop:
		return faultDrop, spike
	case r < cc.cfg.PReset+cc.cfg.PPartition+cc.cfg.PDrop+cc.cfg.PDup:
		return faultDup, spike
	case r < cc.cfg.PReset+cc.cfg.PPartition+cc.cfg.PDrop+cc.cfg.PDup+cc.cfg.PCorrupt:
		return faultCorrupt, spike
	}
	return faultNone, spike
}

func (cc *ChaosConn) Write(p []byte) (int, error) {
	f, spike := cc.draw()
	if spike > 0 {
		atomic.AddInt64(&cc.stats.Spikes, 1)
		time.Sleep(spike)
	}
	switch f {
	case faultPartition:
		atomic.AddInt64(&cc.stats.Partitions, 1)
		return len(p), nil // blackholed: the sender believes it sent
	case faultDrop:
		atomic.AddInt64(&cc.stats.Drops, 1)
		return len(p), nil
	case faultReset:
		atomic.AddInt64(&cc.stats.Resets, 1)
		cc.Conn.Close()
		return 0, net.ErrClosed
	case faultDup:
		atomic.AddInt64(&cc.stats.Dups, 1)
		if n, err := cc.Conn.Write(p); err != nil {
			return n, err
		}
		return cc.Conn.Write(p)
	case faultCorrupt:
		atomic.AddInt64(&cc.stats.Corrupts, 1)
		bad := make([]byte, len(p))
		copy(bad, p)
		span := len(bad)
		if span > FrameHeaderSize {
			span = FrameHeaderSize
		}
		if span > 0 {
			cc.mu.Lock()
			i := cc.rng.Intn(span)
			bit := byte(1) << cc.rng.Intn(8)
			cc.mu.Unlock()
			bad[i] ^= bit
		}
		return cc.Conn.Write(bad)
	}
	return cc.Conn.Write(p)
}

func (cc *ChaosConn) Read(p []byte) (int, error) {
	cc.mu.Lock()
	var spike time.Duration
	if cc.cfg.PSpike > 0 && cc.rng.Float64() < cc.cfg.PSpike {
		lo := cc.cfg.SpikeMin
		if lo <= 0 {
			lo = 200 * time.Microsecond
		}
		spike = lo
	}
	cc.mu.Unlock()
	if spike > 0 {
		atomic.AddInt64(&cc.stats.Spikes, 1)
		time.Sleep(spike)
	}
	return cc.Conn.Read(p)
}
