// Package pool provides a size-classed byte-buffer pool for the
// collective hot path.  The steady-state window loop allocates the same
// few buffer shapes over and over — exchange chunks, window double
// buffers, wire frame payloads — and pool.Get/Put turns each of those
// into a recycled buffer instead of garbage.
//
// Buffers are plain []byte values with len equal to the requested size
// and cap equal to the size class; ownership is explicit: whoever holds
// a buffer may Put it back exactly once, after which it must not be
// read or written.  Cross-pool traffic is legal — a buffer obtained
// from one pool may be Put into another (this happens when the TCP
// transport's receive pool differs from core's exchange pool); a pool
// is just a parking lot for idle class-sized buffers.
package pool

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/counter"
)

// Size classes are powers of two from 512 B to 16 MiB, covering the
// exchange-chunk sizes (bounded by core's 1 MiB collective window)
// through the sieve and collective window buffers (512 KiB / 1 MiB)
// with headroom above them.  Requests above the largest class bypass
// the pool.
const (
	minClassBits = 9  // 512 B
	maxClassBits = 24 // 16 MiB
	numClasses   = maxClassBits - minClassBits + 1

	// MinBuf / MaxBuf bound the pooled sizes.
	MinBuf = 1 << minClassBits
	MaxBuf = 1 << maxClassBits
)

// Stats counts pool traffic.  Gets = Hits + Misses + Oversize.
type Stats struct {
	Gets       int64 // total Get calls (non-trivial sizes)
	Hits       int64 // Gets served from a class freelist
	Misses     int64 // Gets that allocated a fresh class buffer
	Oversize   int64 // Gets above MaxBuf (always allocate)
	Puts       int64 // buffers returned to a class freelist
	PutDropped int64 // Puts below MinBuf or of foreign shapes (dropped)
	BytesAlloc int64 // bytes allocated by Misses and Oversize
}

// Pool is a sync.Pool-backed buffer pool with power-of-two size
// classes.  The zero value is ready to use.  Safe for concurrent use.
type Pool struct {
	// st is the only store of the counters, written atomically, hence
	// first: 64-bit aligned everywhere (package counter).
	st Stats

	classes [numClasses]sync.Pool // holds *[]byte of cap 1<<(minClassBits+i)
	// hdrs recycles the *[]byte header boxes themselves so that a warm
	// Get/Put cycle performs zero allocations: storing a bare []byte in
	// a sync.Pool would box a fresh slice header on every Put.
	hdrs sync.Pool

	// checked, when non-nil, holds the misuse-detector state (see
	// NewChecked in checked.go).
	checked *checkedState
}

// New returns an empty pool.
func New() *Pool { return &Pool{} }

// Global is the default pool used by core and the transports when no
// explicit pool is configured.
var Global = New()

// classFor returns the smallest class index whose size is >= n, or -1
// when n exceeds the largest class.  n must be >= 1.
func classFor(n int) int {
	b := bits.Len(uint(n - 1)) // ceil(log2 n), with classFor(1) == 0
	if b < minClassBits {
		return 0
	}
	if b > maxClassBits {
		return -1
	}
	return b - minClassBits
}

// classSize is the buffer capacity of class c.
func classSize(c int) int { return 1 << (minClassBits + c) }

// Get returns a buffer of length n.  The buffer's contents are
// unspecified (recycled buffers retain old bytes); callers must fully
// overwrite or ReadFull into it before reading.  n <= 0 returns nil.
func (p *Pool) Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	atomic.AddInt64(&p.st.Gets, 1)
	c := classFor(n)
	if c < 0 {
		atomic.AddInt64(&p.st.Oversize, 1)
		atomic.AddInt64(&p.st.BytesAlloc, int64(n))
		return make([]byte, n)
	}
	if hp, _ := p.classes[c].Get().(*[]byte); hp != nil {
		buf := (*hp)[:n]
		*hp = nil
		p.hdrs.Put(hp)
		atomic.AddInt64(&p.st.Hits, 1)
		if p.checked != nil {
			p.checked.onGet(buf)
		}
		return buf
	}
	atomic.AddInt64(&p.st.Misses, 1)
	atomic.AddInt64(&p.st.BytesAlloc, int64(classSize(c)))
	return make([]byte, classSize(c))[:n]
}

// Put returns a buffer to the pool.  The caller relinquishes the buffer
// — and every slice aliasing it — entirely; a second Put, or any read
// or write after Put, corrupts whoever gets the buffer next (the
// Checked pool turns both into panics).  Buffers smaller than the
// smallest class are dropped.  Put(nil) is a no-op.
func (p *Pool) Put(buf []byte) {
	if cap(buf) < MinBuf {
		if buf != nil {
			atomic.AddInt64(&p.st.PutDropped, 1)
		}
		return
	}
	// File the buffer under the largest class not exceeding its
	// capacity, so a Get of that class never yields a too-small buffer.
	c := bits.Len(uint(cap(buf))) - 1 - minClassBits
	if c >= numClasses {
		c = numClasses - 1
	}
	if p.checked != nil {
		p.checked.onPut(buf, classSize(c))
	}
	hp, _ := p.hdrs.Get().(*[]byte)
	if hp == nil {
		hp = new([]byte)
	}
	*hp = buf[:classSize(c)]
	p.classes[c].Put(hp)
	atomic.AddInt64(&p.st.Puts, 1)
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats { return counter.Load(&p.st) }
