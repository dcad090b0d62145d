// Package transporttest holds transport wrappers that tests use to
// schedule what a fabric delivers when.
package transporttest

import (
	"bytes"
	"sync"
	"time"

	"repro/internal/transport"
)

// Delayed is an endpoint whose every send to one peer is held back: a
// goroutine of its own forwards those frames in order, each an interval
// after the one before it left, so that this one link lags every other
// link of the world while keeping its FIFO order.  Sends to other ranks,
// and everything the endpoint receives, pass straight through.
//
// A held frame is the wrapper's own copy, forwarded with SendNoCopy (a
// reference with SendRef), so Send's payload is the caller's again once
// it returns.  Flush waits until every held frame has been forwarded, then
// flushes the endpoint; Close stops the goroutine and waits for it.
type Delayed struct {
	transport.Transport
	to    int
	every time.Duration

	mu     sync.Mutex
	cond   *sync.Cond
	held   []heldFrame
	closed bool
	done   chan struct{}
}

type heldFrame struct {
	tag  int
	data []byte
	ref  any
}

// Delay wraps ep so that every frame it sends to rank to leaves every
// after the one before it.
func Delay(ep transport.Transport, to int, every time.Duration) *Delayed {
	d := &Delayed{Transport: ep, to: to, every: every, done: make(chan struct{})}
	d.cond = sync.NewCond(&d.mu)
	go d.forward()
	return d
}

func (d *Delayed) forward() {
	defer close(d.done)
	for {
		d.mu.Lock()
		for len(d.held) == 0 && !d.closed {
			d.cond.Wait()
		}
		if d.closed {
			d.mu.Unlock()
			return
		}
		fr := d.held[0]
		d.mu.Unlock()
		time.Sleep(d.every)
		// A failed send has failed the endpoint, which its receives report.
		if fr.ref != nil {
			_ = d.Transport.SendRef(d.to, fr.tag, fr.ref)
		} else {
			_ = d.Transport.SendNoCopy(d.to, fr.tag, fr.data)
		}
		d.mu.Lock()
		d.held = d.held[1:]
		d.mu.Unlock()
		d.cond.Broadcast()
	}
}

func (d *Delayed) hold(fr heldFrame) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return transport.ErrClosed
	}
	d.held = append(d.held, fr)
	d.cond.Broadcast()
	return nil
}

// Send implements transport.Transport.
func (d *Delayed) Send(dst, tag int, data []byte) error {
	if dst != d.to {
		return d.Transport.Send(dst, tag, data)
	}
	return d.hold(heldFrame{tag: tag, data: bytes.Clone(data)})
}

// SendNoCopy implements transport.Transport.
func (d *Delayed) SendNoCopy(dst, tag int, data []byte) error {
	if dst != d.to {
		return d.Transport.SendNoCopy(dst, tag, data)
	}
	return d.hold(heldFrame{tag: tag, data: data})
}

// SendRef implements transport.Transport.
func (d *Delayed) SendRef(dst, tag int, ref any) error {
	if dst != d.to {
		return d.Transport.SendRef(dst, tag, ref)
	}
	return d.hold(heldFrame{tag: tag, ref: ref})
}

// Flush implements transport.Transport.
func (d *Delayed) Flush() error {
	d.mu.Lock()
	for len(d.held) > 0 && !d.closed {
		d.cond.Wait()
	}
	d.mu.Unlock()
	return d.Transport.Flush()
}

// Close implements transport.Transport.
func (d *Delayed) Close() error {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.cond.Broadcast()
	err := d.Transport.Close()
	<-d.done
	return err
}
