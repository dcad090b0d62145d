package storage

import "sync"

// LockTable serializes overlapping byte-range accesses.  Data sieving
// writes are read-modify-write cycles on a window of the file; the
// window must be locked so concurrent independent writers do not clobber
// each other's bytes through stale sieve buffers (paper §2.2), and so
// must every other write that may land inside another writer's window.
type LockTable struct {
	mu   sync.Mutex
	cond *sync.Cond
	held []span
}

type span struct{ lo, hi int64 }

// NewLockTable returns an empty lock table.
func NewLockTable() *LockTable {
	lt := &LockTable{}
	lt.cond = sync.NewCond(&lt.mu)
	return lt
}

// Lock blocks until the byte range [lo, hi) can be held exclusively, and
// holds it until Unlock(lo, hi).
func (lt *LockTable) Lock(lo, hi int64) {
	lt.mu.Lock()
	for lt.overlaps(lo, hi) {
		lt.cond.Wait()
	}
	lt.held = append(lt.held, span{lo, hi})
	lt.mu.Unlock()
}

// Unlock releases the range [lo, hi) a Lock holds.
func (lt *LockTable) Unlock(lo, hi int64) {
	lt.mu.Lock()
	for i, s := range lt.held {
		if s.lo == lo && s.hi == hi {
			lt.held = append(lt.held[:i], lt.held[i+1:]...)
			break
		}
	}
	lt.mu.Unlock()
	lt.cond.Broadcast()
}

func (lt *LockTable) overlaps(lo, hi int64) bool {
	for _, s := range lt.held {
		if lo < s.hi && s.lo < hi {
			return true
		}
	}
	return false
}
