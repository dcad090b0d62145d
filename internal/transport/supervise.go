package transport

import (
	"fmt"
	"os"
	"os/exec"
	"sync"
	"time"
)

// Server supervision.  Each I/O server of a launch runs under its own
// restart loop: a server that dies prematurely is restarted on its
// inherited listener — same address, bounded attempts, exponential
// backoff — so the ranks' resilient clients reconnect and heal a
// mid-collective crash instead of the whole run failing.  A server that
// exhausts its restart budget fails the pool.

// restartBackoff delays the first restart of a server, doubling per
// consecutive restart.
const restartBackoff = 50 * time.Millisecond

// ServerPoolOptions configure one supervised server pool.
type ServerPoolOptions struct {
	// Listeners are the pre-bound service listeners, one per server,
	// inherited at fd RendezvousFD across every (re)start.  The pool
	// never closes them — the caller owns their lifetime, and they must
	// stay open as long as restarts are possible.
	Listeners []*os.File
	// MaxRestarts bounds automatic restarts per server; 0 means no
	// supervision — any premature death fails the pool immediately.
	MaxRestarts int
	// StartProc creates server idx's process over listener, which it
	// passes at fd RendezvousFD, and must Start it before returning.
	StartProc func(idx int, listener *os.File) (*exec.Cmd, error)
	// OnRestart, when set, is invoked after the backoff and just before
	// a crashed server's replacement starts (attempt counts from 1).
	// The flight-recorder machinery uses it to move the dead instance's
	// dump aside before the replacement overwrites it.
	OnRestart func(idx, attempt int)
}

// ServerPool runs and supervises one process per server listener.
type ServerPool struct {
	opts ServerPoolOptions

	mu       sync.Mutex
	cmds     []*exec.Cmd
	restarts []int
	stopping bool
	graceful bool

	stopCh   chan struct{}
	failures chan error
	wg       sync.WaitGroup
}

// StartServerPool starts every server and its supervision loop.  On a
// start failure the already-started servers are killed and reaped.
func StartServerPool(opts ServerPoolOptions) (*ServerPool, error) {
	n := len(opts.Listeners)
	if n == 0 {
		return nil, fmt.Errorf("transport: server pool needs listeners")
	}
	if opts.StartProc == nil {
		return nil, fmt.Errorf("transport: server pool needs StartProc")
	}
	p := &ServerPool{
		opts:     opts,
		cmds:     make([]*exec.Cmd, n),
		restarts: make([]int, n),
		stopCh:   make(chan struct{}),
		failures: make(chan error, n),
	}
	for idx := 0; idx < n; idx++ {
		cmd, err := opts.StartProc(idx, opts.Listeners[idx])
		if err != nil {
			for _, c := range p.cmds[:idx] {
				c.Process.Kill()
				c.Wait()
			}
			return nil, fmt.Errorf("transport: starting server %d: %w", idx, err)
		}
		p.cmds[idx] = cmd
	}
	for idx := 0; idx < n; idx++ {
		p.wg.Add(1)
		go p.run(idx, p.cmds[idx])
	}
	return p, nil
}

// run is server idx's supervision loop: wait, classify, restart.
func (p *ServerPool) run(idx int, cmd *exec.Cmd) {
	defer p.wg.Done()
	backoff := restartBackoff
	for {
		err := cmd.Wait()
		p.mu.Lock()
		stopping, graceful := p.stopping, p.graceful
		p.mu.Unlock()
		if stopping {
			// Dying to the stop (or the escalation kill) is the expected
			// mechanism; only a real failure during graceful shutdown —
			// a journal seal that could not be written, say — counts.
			if graceful {
				if e := serverExitError(idx, err, true); e != nil {
					p.fail(e)
				}
			}
			return
		}
		p.mu.Lock()
		p.restarts[idx]++
		attempt := p.restarts[idx]
		p.mu.Unlock()
		if attempt > p.opts.MaxRestarts {
			p.fail(fmt.Errorf("transport: server %d died (%v) with restart budget exhausted (%d)",
				idx, exitCause(err), p.opts.MaxRestarts))
			return
		}
		select {
		case <-p.stopCh:
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if p.opts.OnRestart != nil {
			p.opts.OnRestart(idx, attempt)
		}
		next, startErr := p.opts.StartProc(idx, p.opts.Listeners[idx])
		if startErr != nil {
			p.fail(fmt.Errorf("transport: restarting server %d (attempt %d): %w", idx, attempt, startErr))
			return
		}
		p.mu.Lock()
		if p.stopping {
			// A stop raced the restart and already signalled the old
			// process; take the replacement down with it.
			p.mu.Unlock()
			next.Process.Kill()
			next.Wait()
			return
		}
		p.cmds[idx] = next
		p.mu.Unlock()
		cmd = next
	}
}

// exitCause renders a Wait error ("exit status 1", "signal: killed") or
// a clean premature exit.
func exitCause(err error) string {
	if err == nil {
		return "exited cleanly"
	}
	return err.Error()
}

// fail records a pool failure; only the first per slot matters and the
// channel is sized for all of them, so the send cannot block.
func (p *ServerPool) fail(err error) {
	select {
	case p.failures <- err:
	default:
	}
}

// Failures delivers fatal pool errors: a server past its restart
// budget, a failed restart, or a real error during graceful shutdown.
func (p *ServerPool) Failures() <-chan error { return p.failures }

// Kill SIGKILLs server idx's current process — the fault-injection
// entry point of the kill-and-restart harness.  Supervision restarts
// the server if the budget allows.
func (p *ServerPool) Kill(idx int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if idx < 0 || idx >= len(p.cmds) {
		return fmt.Errorf("transport: kill: no server %d", idx)
	}
	c := p.cmds[idx]
	if c == nil || c.Process == nil {
		return fmt.Errorf("transport: kill: server %d not running", idx)
	}
	return c.Process.Kill()
}

// Stop ends supervision and takes the servers down: gracefully with an
// interrupt (so they flush, sync, and seal their journals) or
// immediately with a kill.  Stop(false) after Stop(true) escalates; any
// further Stop is a no-op.  Servers stopped mid-backoff simply never
// restart.
func (p *ServerPool) Stop(graceful bool) {
	p.mu.Lock()
	first := !p.stopping
	p.stopping = true
	if first {
		p.graceful = graceful
		close(p.stopCh)
	}
	cmds := append([]*exec.Cmd(nil), p.cmds...)
	p.mu.Unlock()
	if !first && graceful {
		return // already stopping at least this hard
	}
	for _, c := range cmds {
		if c == nil || c.Process == nil {
			continue
		}
		if graceful {
			if err := c.Process.Signal(os.Interrupt); err != nil {
				c.Process.Kill()
			}
		} else {
			c.Process.Kill()
		}
	}
}

// Wait blocks until every supervision loop has exited — i.e. until
// every server is down for good, after a Stop or a fatal failure plus
// Stop.
func (p *ServerPool) Wait() { p.wg.Wait() }
