package transport

import (
	"fmt"
	"sync"
)

// inbox is the per-rank message queue with source/tag matching — the
// queue machinery of internal/mpi's original mailbox, moved here so
// every transport shares identical matching, ordering, and drain
// semantics regardless of how bytes arrive.
//
// It also matches posted receives (Post).  A posting takes the earliest
// message of its (src, tag) that nothing has matched yet: one already
// queued is copied into it at once; otherwise the posting waits in posts
// and the next such message fills it where it is delivered — by put, or
// by a link reader between arrive and land.  Either way the message is
// queued as a completion (Message.Len, no Data) in its arrival order, so
// Recv keeps per-(src, tag) FIFO order across posted and unposted
// messages alike.
type inbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Message
	posts  []posting  // postings nothing has matched yet, in posting order
	early  []envelope // frames a link reader is reading into a pooled payload
	busy   []envelope // postings a link reader is filling
	closed bool
	cause  error // what take reports once closed
}

// posting is one posted receive: the segments the matching message's
// payload goes to, n bytes in all.
type posting struct {
	src, tag int
	segs     [][]byte
	n        int
}

type envelope struct{ src, tag int }

func newInbox() *inbox {
	ib := &inbox{}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

// put delivers a whole message: into the earliest pending posting of its
// (src, tag), which it then completes, or onto the queue.  Messages
// delivered after close are dropped: the endpoint is dead and nothing
// will take them.  It returns the payload of a message that filled a
// posting, which the caller may recycle, or a length mismatch with the
// posting, which it leaves unwritten and the caller fails the endpoint
// with.
func (ib *inbox) put(m Message) (spent []byte, err error) {
	ib.mu.Lock()
	defer ib.cond.Broadcast()
	defer ib.mu.Unlock()
	if ib.closed {
		return nil, nil
	}
	if p, ok := ib.match(m.Src, m.Tag); ok {
		if err := p.fill(m); err != nil {
			return nil, err
		}
		spent, m = m.Data, Message{Src: m.Src, Tag: m.Tag, Len: p.n, posted: true}
	}
	ib.queue = append(ib.queue, m)
	return spent, nil
}

// post matches a posted receive (Post).  While a link reader is reading a
// frame of (src, tag) into a pooled payload, that frame counts as queued:
// post waits for it to land and takes it, or window k+1's frame would fill
// window k's posting.  It returns the payload of a queued message it
// copied, which the caller may recycle; or a closed inbox's cause, or a
// length mismatch, which leaves segs unwritten and which the caller fails
// the endpoint with.
func (ib *inbox) post(src, tag int, segs [][]byte) (spent []byte, err error) {
	p := posting{src: src, tag: tag, segs: segs, n: segsLen(segs)}
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for !ib.closed && holds(ib.early, src, tag) {
		ib.cond.Wait()
	}
	if ib.closed {
		return nil, ib.cause
	}
	for i := range ib.queue {
		if m := &ib.queue[i]; m.Src == src && m.Tag == tag && !m.posted {
			if err := p.fill(*m); err != nil {
				return nil, err
			}
			spent, *m = m.Data, Message{Src: src, Tag: tag, Len: p.n, posted: true}
			return spent, nil
		}
	}
	ib.posts = append(ib.posts, p)
	return nil, nil
}

// match removes and returns the earliest pending posting of (src, tag).
func (ib *inbox) match(src, tag int) (posting, bool) {
	for i, p := range ib.posts {
		if p.src == src && p.tag == tag {
			n := len(ib.posts)
			copy(ib.posts[i:], ib.posts[i+1:])
			ib.posts[n-1] = posting{} // the array keeps no segments it no longer posts
			ib.posts = ib.posts[:n-1]
			return p, true
		}
	}
	return posting{}, false
}

// arrive is a link reader's first step for a frame of (src, tag) whose
// header it has read: the frame takes the earliest pending posting, which
// the reader then fills outside the lock, or it goes to a pooled payload.
// Either way it is in flight until land.
func (ib *inbox) arrive(src, tag int) (posting, bool) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	p, ok := ib.match(src, tag)
	if ok {
		ib.busy = append(ib.busy, envelope{src, tag})
	} else {
		ib.early = append(ib.early, envelope{src, tag})
	}
	return p, ok
}

// land ends what arrive began: the frame is queued — a completion when it
// filled a posting — or, when its read failed (ok false), only leaves
// flight.
func (ib *inbox) land(m Message, ok bool) {
	ib.mu.Lock()
	if m.posted {
		ib.busy = unhold(ib.busy, m.Src, m.Tag)
	} else {
		ib.early = unhold(ib.early, m.Src, m.Tag)
	}
	if ok && !ib.closed {
		ib.queue = append(ib.queue, m)
	}
	ib.mu.Unlock()
	ib.cond.Broadcast()
}

// take removes and returns the earliest message matching (src, tag),
// blocking until one arrives or the inbox closes.
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
		ib.cond.Wait()
	}
}

// drain withdraws every pending posting with the given tag (any source),
// waits until no link reader is filling one, then removes every queued
// message with the tag, preserving the order of the rest, and reports
// what it discarded: the count and the payload bytes, a completion's
// included.  From its return on nothing writes a segment posted under the
// tag.
func (ib *inbox) drain(tag int) (dropped int, bytes int64) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	posts := ib.posts[:0]
	for _, p := range ib.posts {
		if p.tag != tag {
			posts = append(posts, p)
		}
	}
	clear(ib.posts[len(posts):])
	ib.posts = posts
	for holds(ib.busy, AnySource, tag) {
		ib.cond.Wait() // a reader always lands, if only because its link closed
	}
	kept := ib.queue[:0]
	for i := range ib.queue {
		if m := &ib.queue[i]; m.Tag != tag {
			kept = append(kept, *m)
		} else {
			bytes += int64(len(m.Data) + m.Len)
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

// fill copies m's payload into the posting, which must be exactly as long.
func (p *posting) fill(m Message) error {
	if m.Ref != nil {
		return fmt.Errorf("%w: a reference for a posting of %d bytes", ErrFrame, p.n)
	}
	if err := frameFits(len(m.Data), p.n); err != nil {
		return err
	}
	at := m.Data
	for _, s := range p.segs {
		at = at[copy(s, at):]
	}
	return nil
}

// frameFits is the one length check of a message against the posting it
// matched: a message of n bytes fills a posting of want bytes or fails
// the endpoint, and is never written partially.
func frameFits(n, want int) error {
	if n != want {
		return fmt.Errorf("%w: frame of %d bytes for a posting of %d", ErrFrame, n, want)
	}
	return nil
}

func segsLen(segs [][]byte) int {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	return n
}

// holds reports whether es has an entry of (src, tag); AnySource matches
// every source.
func holds(es []envelope, src, tag int) bool {
	for _, e := range es {
		if (src == AnySource || e.src == src) && e.tag == tag {
			return true
		}
	}
	return false
}

// unhold removes one entry of (src, tag) from es.
func unhold(es []envelope, src, tag int) []envelope {
	for i, e := range es {
		if e.src == src && e.tag == tag {
			es[i] = es[len(es)-1]
			return es[:len(es)-1]
		}
	}
	return es
}
