// Package storage provides the file-system substrate under the MPI-IO
// layer: byte-addressed backends with POSIX-like contiguous ReadAt/
// WriteAt semantics, a bandwidth/latency throttle for modelling slower
// file systems, a range-lock table for atomic read-modify-write during
// data sieving, and access instrumentation.
//
// The default in-memory backend stands in for the NEC SX's very fast
// local file system (see DESIGN.md): contiguous access is far faster
// than per-element software overhead, which is the regime in which the
// paper's listless-I/O gains are largest.
package storage

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
)

// Backend is a byte-addressed store with contiguous access, the only
// interface the file system offers to the MPI-IO layer (POSIX-style:
// no scatter/gather, no non-contiguous primitives).
type Backend interface {
	io.ReaderAt
	io.WriterAt
	// Size reports the current length of the store.
	Size() int64
	// Truncate sets the length of the store.
	Truncate(n int64) error
	// Sync flushes buffered state.
	Sync() error
}

// Mem is a growable in-memory Backend.  It is safe for concurrent use.
// Reads past the end return io.EOF after the available bytes, like
// os.File.
//
// Locking contract.  Every call is atomic against every call whose byte
// range overlaps its own — a reader sees all of an overlapping write or
// none of it, of a vectored batch as of a plain one — while readers
// share and writers to disjoint ranges run at once, as they do on the
// file system Mem stands in for.  Two levels provide that:
//
//   - mu guards the slice header.  Every access holds it shared for its
//     whole duration; a call that changes the length or the backing array
//     (a write past the end, Truncate) and Bytes hold it exclusively and
//     so run alone.
//   - region guards the bytes.  The store is cut into memRegions regions
//     of 1<<shift bytes; a call takes the locks of every region its span
//     [lo, hi) touches — a batch: from its lowest to its highest byte — in
//     ascending order, shared to read and exclusive to write, before it
//     moves the first byte, and drops them after the last.  Ascending
//     order rules out deadlock; taking all before moving any is what
//     makes a multi-region call atomic.  The region size doubles with the
//     backing array (under mu held exclusively, so no call is under way
//     when the mapping changes), which bounds a call at memRegions lock
//     and as many unlock operations whatever the store's size.
//
// Mem is strictly single-process: it lives in this process's heap, so
// ranks running as separate OS processes (the network transport's -net
// mode) cannot share one — they must share a *File, whose advisory lock
// enforces deliberate multi-process access.
type Mem struct {
	mu     sync.RWMutex
	data   []byte
	shift  uint // log2 of the region size, less memMinShift
	region [memRegions]sync.RWMutex
}

const (
	memRegions  = 128
	memMinShift = 12 // regions are never smaller than 4 KiB

	// memMaxSize is the longest store make accepts on every platform the
	// runtime supports (its allocator addresses 48 bits at most, an int may
	// be 32).  A write or Truncate asking for more is refused; whether the
	// machine has the memory for less is the allocator's to say.
	memMaxSize = min(math.MaxInt, 1<<47)
)

// NewMem returns an empty in-memory backend.
func NewMem() *Mem { return &Mem{} }

// lockSpan takes the region locks of the bytes [lo, hi), which must lie
// inside the backing array, and returns the region range to hand to
// unlockSpan.  The caller holds mu shared.
func (m *Mem) lockSpan(lo, hi int64, write bool) (r0, r1 int) {
	if hi <= lo {
		return 0, -1
	}
	s := memMinShift + m.shift
	r0, r1 = int(lo>>s), int((hi-1)>>s)
	for r := r0; r <= r1; r++ {
		if write {
			m.region[r].Lock()
		} else {
			m.region[r].RLock()
		}
	}
	return r0, r1
}

func (m *Mem) unlockSpan(r0, r1 int, write bool) {
	for r := r0; r <= r1; r++ {
		if write {
			m.region[r].Unlock()
		} else {
			m.region[r].RUnlock()
		}
	}
}

// memFits refuses n bytes at off when they end past memMaxSize.
func memFits(off, n int64) error {
	if off > memMaxSize-n {
		return fmt.Errorf("storage: %d bytes at offset %d lie beyond what an in-memory store can hold: %w", n, off, ErrPermanent)
	}
	return nil
}

// growTo extends the store to at least end bytes (memFits has passed
// them), keeping the regions at memRegions or fewer.  The caller holds mu
// exclusively.
func (m *Mem) growTo(end int64) {
	if end <= int64(len(m.data)) {
		return
	}
	if end <= int64(cap(m.data)) {
		m.data = m.data[:end]
		return
	}
	grown := make([]byte, end, min(max(2*int64(cap(m.data)), end), memMaxSize))
	copy(grown, m.data)
	m.data = grown
	for int64(cap(grown)-1)>>(memMinShift+m.shift) >= memRegions {
		m.shift++
	}
}

// ReadAt implements io.ReaderAt.
func (m *Mem) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("storage: negative offset %d", off)
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	end := min(off+int64(len(p)), int64(len(m.data)))
	r0, r1 := m.lockSpan(off, end, false)
	n := copy(p, m.data[off:end])
	m.unlockSpan(r0, r1, false)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt, growing the store as needed: a batch
// of one segment (vectored.go has the one write path).
func (m *Mem) WriteAt(p []byte, off int64) (int, error) {
	seg := [1]Segment{{Off: off, Buf: p}}
	if err := m.WriteAtv(seg[:]); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Size implements Backend.
func (m *Mem) Size() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return int64(len(m.data))
}

// Truncate implements Backend.
func (m *Mem) Truncate(n int64) error {
	if n < 0 {
		return fmt.Errorf("storage: negative truncate %d", n)
	}
	if err := memFits(0, n); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if n <= int64(len(m.data)) {
		// Zero the reclaimed region: the backing array keeps its
		// capacity, and a later regrow within that capacity (growTo's
		// m.data[:end] path) must expose zeros, not the pre-truncate
		// bytes.  This maintains the invariant data[len:cap] == 0.
		clear(m.data[n:])
		m.data = m.data[:n]
		return nil
	}
	m.growTo(n)
	return nil
}

// Sync implements Backend (a no-op for memory).
func (m *Mem) Sync() error { return nil }

// File is a Backend backed by an *os.File.
type File struct {
	f *os.File

	mu      sync.Mutex
	sizeErr error // deferred Stat failure from Size (which cannot return one)
}

// OpenFile creates or opens path for exclusive read/write access: an
// advisory lock (flock) is taken so a second process opening the same
// path — e.g. two single-process runs racing, or a multi-process rank
// that should have used OpenFileShared — fails fast with ErrLocked
// instead of silently interleaving writes.
func OpenFile(path string) (*File, error) {
	return openLocked(path, false)
}

// OpenFileShared creates or opens path for read/write access under a
// shared advisory lock — the open the network transport's rank
// processes use when they deliberately operate on one file (collective
// I/O partitions it into disjoint domains).  A shared open fails with
// ErrLocked while an exclusive holder exists, and vice versa.
func OpenFileShared(path string) (*File, error) {
	return openLocked(path, true)
}

func openLocked(path string, shared bool) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := flockFile(f, shared); err != nil {
		f.Close()
		return nil, err
	}
	return &File{f: f}, nil
}

// ReadAt implements io.ReaderAt.
func (fb *File) ReadAt(p []byte, off int64) (int, error) {
	if err := fb.takeSizeErr(); err != nil {
		return 0, err
	}
	return fb.f.ReadAt(p, off)
}

// WriteAt implements io.WriterAt.
func (fb *File) WriteAt(p []byte, off int64) (int, error) { return fb.f.WriteAt(p, off) }

// Size implements Backend.  The Backend interface gives Size no error
// return; a Stat failure must not masquerade as an empty file (data
// sieving would treat 0 as EOF and skip its pre-read), so the error is
// cached and surfaced from the next ReadAt or Sync.
func (fb *File) Size() int64 {
	fi, err := fb.f.Stat()
	if err != nil {
		fb.mu.Lock()
		if fb.sizeErr == nil {
			fb.sizeErr = fmt.Errorf("storage: deferred Size failure: %w", err)
		}
		fb.mu.Unlock()
		return 0
	}
	return fi.Size()
}

// takeSizeErr returns and clears the deferred Size failure, if any.
func (fb *File) takeSizeErr() error {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	err := fb.sizeErr
	fb.sizeErr = nil
	return err
}

// Truncate implements Backend.
func (fb *File) Truncate(n int64) error { return fb.f.Truncate(n) }

// Sync implements Backend.
func (fb *File) Sync() error {
	if err := fb.takeSizeErr(); err != nil {
		return err
	}
	return fb.f.Sync()
}

// Close closes the underlying file.
func (fb *File) Close() error { return fb.f.Close() }

// ErrLocked is wrapped by OpenFile / OpenFileShared when another
// process holds a conflicting advisory lock on the path.
var ErrLocked = errors.New("storage: file locked by another process")

// ReadFull reads len(p) bytes at off, zero-filling anything past the end
// of the store — the read semantics data sieving needs when its file
// window extends past EOF.  Errors other than EOF are propagated.
func ReadFull(b Backend, p []byte, off int64) error {
	n, err := b.ReadAt(p, off)
	if err != nil && err != io.EOF {
		return err
	}
	for i := n; i < len(p); i++ {
		p[i] = 0
	}
	return nil
}
