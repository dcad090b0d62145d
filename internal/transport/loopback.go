package transport

import "errors"

// ErrClosed is the cause Recv and Send report after a plain Close.
// Transport failures (a lost TCP link, a deadline) report their own
// causes, which do not wrap ErrClosed.
var ErrClosed = errors.New("transport: endpoint closed")

// loopbackFabric is the shared state of one in-process world: every
// endpoint can reach every inbox directly.
type loopbackFabric struct {
	inboxes []*inbox
}

// Loopback is the in-process transport: Send is one function call that
// appends to the destination rank's inbox, exactly the seed's
// shared-memory mailbox delivery.  Zero goroutines, zero wire bytes.
type Loopback struct {
	fab  *loopbackFabric
	rank int
}

// NewLoopback creates the endpoints of an n-rank in-process fabric.
func NewLoopback(n int) []Transport {
	fab := &loopbackFabric{inboxes: make([]*inbox, n)}
	for i := range fab.inboxes {
		fab.inboxes[i] = newInbox()
	}
	eps := make([]Transport, n)
	for r := range eps {
		eps[r] = &Loopback{fab: fab, rank: r}
	}
	return eps
}

// Rank implements Transport.
func (l *Loopback) Rank() int { return l.rank }

// Size implements Transport.
func (l *Loopback) Size() int { return len(l.fab.inboxes) }

// Listen implements Transport (nothing to bind in-process).
func (l *Loopback) Listen() error { return nil }

// Dial implements Transport (every peer is already reachable).
func (l *Loopback) Dial() error { return nil }

// Send implements Transport: copy, then deliver directly.
func (l *Loopback) Send(dst, tag int, data []byte) error {
	buf := make([]byte, len(data))
	copy(buf, data)
	return l.deliver(dst, Message{Tag: tag, Data: buf})
}

// SendNoCopy implements Transport: deliver directly without copying.
// The same slice travels from sender to receiver — the zero-copy
// loopback mailbox — so ownership passes end-to-end: the receiver may
// recycle the payload into a buffer pool.
func (l *Loopback) SendNoCopy(dst, tag int, data []byte) error {
	return l.deliver(dst, Message{Tag: tag, Data: data})
}

// SendSegs implements Transport: the slices are gathered into one
// payload the receiver owns, as TCP's receiver gets it, so they are the
// caller's again when it returns.  (What moves a user buffer in place
// in-process is SendRef.)
func (l *Loopback) SendSegs(dst, tag int, segs [][]byte) error {
	return l.deliver(dst, Message{Tag: tag, Data: gather(segs, func(n int) []byte { return make([]byte, n) })})
}

// SendRef implements Transport: the receiver gets ref itself.
func (l *Loopback) SendRef(dst, tag int, ref any) error {
	return l.deliver(dst, Message{Tag: tag, Ref: ref})
}

func (l *Loopback) deliver(dst int, m Message) error {
	if err := checkSend(dst, m.Tag, len(l.fab.inboxes), m.Ref != nil, false); err != nil {
		return err
	}
	m.Src = l.rank
	ib := l.fab.inboxes[dst]
	if _, err := ib.put(m); err != nil {
		ib.close(err) // the receiving endpoint fails; the send was made
	}
	return nil
}

// Post implements Transport: a later message fills the posting when it is
// delivered, in the sender's call.
func (l *Loopback) Post(src, tag int, segs [][]byte) error {
	if err := checkPost(src, tag, len(l.fab.inboxes)); err != nil {
		return err
	}
	ib := l.fab.inboxes[l.rank]
	_, err := ib.post(src, tag, segs)
	if err != nil {
		ib.close(err)
	}
	return err
}

// Recv implements Transport.
func (l *Loopback) Recv(src, tag int) (Message, error) {
	return l.fab.inboxes[l.rank].take(src, tag)
}

// DrainTag implements Transport.
func (l *Loopback) DrainTag(tag int) (int, int64) {
	return l.fab.inboxes[l.rank].drain(tag)
}

// Flush implements Transport (deliveries are synchronous).
func (l *Loopback) Flush() error { return nil }

// Quiesce implements Transport (there are no links to lose).
func (l *Loopback) Quiesce() {}

// Close implements Transport: only this rank's inbox closes, mirroring
// the original per-mailbox close during a world abort.
func (l *Loopback) Close() error {
	l.fab.inboxes[l.rank].close(nil)
	return nil
}

// Stats implements Transport: nothing crosses a wire in-process.
func (l *Loopback) Stats() WireStats { return WireStats{} }
