package transport

import "sync"

// inbox is the per-rank message queue with source/tag matching — the
// queue machinery of internal/mpi's original mailbox, moved here so
// every transport shares identical matching, ordering, and drain
// semantics regardless of how bytes arrive.
type inbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Message
	closed bool
	cause  error // what take reports once closed
	// gone holds, by source, why a source's link stopped delivering: every
	// message it delivered is queued, so a take naming that source which
	// finds none fails with it rather than waiting for ever.
	gone map[int]error
}

func newInbox() *inbox {
	ib := &inbox{}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

// put queues a whole message.  Messages delivered after close are
// dropped: the endpoint is dead and nothing will take them.
func (ib *inbox) put(m Message) {
	ib.mu.Lock()
	if !ib.closed {
		ib.queue = append(ib.queue, m)
	}
	ib.mu.Unlock()
	ib.cond.Broadcast()
}

// lose records that src delivers nothing more, for the reason err.  The
// first reason wins.
func (ib *inbox) lose(src int, err error) {
	ib.mu.Lock()
	if ib.gone == nil {
		ib.gone = map[int]error{}
	}
	if _, ok := ib.gone[src]; !ok {
		ib.gone[src] = err
	}
	ib.mu.Unlock()
	ib.cond.Broadcast()
}

// take removes and returns the earliest message matching (src, tag),
// blocking until one arrives, the inbox closes, or src (not AnySource)
// is gone.
func (ib *inbox) take(src, tag int) (Message, error) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for {
		if ib.closed {
			return Message{}, ib.cause
		}
		for i, m := range ib.queue {
			if (src == AnySource || m.Src == src) && (tag == AnyTag || m.Tag == tag) {
				ib.queue = append(ib.queue[:i], ib.queue[i+1:]...)
				return m, nil
			}
		}
		if err := ib.gone[src]; err != nil {
			return Message{}, err
		}
		ib.cond.Wait()
	}
}

// drain removes every queued message with the given tag, preserving the
// order of the rest, and reports what it discarded: the count and the
// payload bytes.
func (ib *inbox) drain(tag int) (dropped int, bytes int64) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	kept := ib.queue[:0]
	for _, m := range ib.queue {
		if m.Tag != tag {
			kept = append(kept, m)
		} else {
			bytes += int64(len(m.Data))
		}
	}
	dropped = len(ib.queue) - len(kept)
	clear(ib.queue[len(kept):]) // release dropped payloads and references
	ib.queue = kept
	return dropped, bytes
}

// close marks the inbox dead with the given cause (nil means a plain
// Close and reports ErrClosed).  The first cause wins.
func (ib *inbox) close(cause error) {
	if cause == nil {
		cause = ErrClosed
	}
	ib.mu.Lock()
	if !ib.closed {
		ib.closed = true
		ib.cause = cause
	}
	ib.mu.Unlock()
	ib.cond.Broadcast()
}
