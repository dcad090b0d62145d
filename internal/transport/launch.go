package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"
)

// Launcher: fork one OS process per rank — and, optionally, one per
// I/O server — and supervise them.  The parent binds every listening
// socket itself and passes each to its child (ExtraFiles → fd 3), so
// ports are chosen by the kernel yet never raced: rank 0 inherits the
// rendezvous listener, each I/O server inherits its service listener,
// and every rank gets the final rendezvous and server addresses on its
// command line before any child starts.

// LaunchOptions configures one multi-process run.
type LaunchOptions struct {
	// Size is the number of ranks (one process each).
	Size int
	// Exe is the binary every rank and server runs.
	Exe string
	// Args builds rank r's argument list.  rendezvous is the bound
	// rank-0 address; rank 0 should be told to adopt inherited fd
	// RendezvousFD instead of binding it.  serverAddrs lists the bound
	// I/O-server addresses, in server order (empty when Servers is 0).
	Args func(rank int, rendezvous string, serverAddrs []string) []string
	// Servers is the number of I/O-server processes launched alongside
	// the ranks.  Each server adopts its pre-bound service listener at
	// fd RendezvousFD.  Servers outlive the ranks: when every rank has
	// exited cleanly the launcher stops them with an interrupt signal
	// (so they can flush traces and sync their stripes) and escalates
	// to a kill after ServerStopTimeout.  A server that dies while
	// ranks are still running is restarted on its inherited listener
	// when ServerRestarts allows, and fails the whole run otherwise.
	Servers int
	// ServerArgs builds server s's argument list (required when
	// Servers > 0).
	ServerArgs func(idx int) []string
	// ServerRestarts bounds automatic restarts per crashed server (0 =
	// no supervision: any premature server death fails the run).
	ServerRestarts int
	// ServerRestartBackoff delays the first restart of a server,
	// doubling per consecutive restart (default 50ms).
	ServerRestartBackoff time.Duration
	// KillServerAfter, when positive, SIGKILLs server KillServerIdx
	// that long after launch — the fault-injection hook of the
	// kill-and-restart harness.
	KillServerAfter time.Duration
	KillServerIdx   int
	// ServerStopTimeout bounds the graceful server shutdown after the
	// ranks finish (default 10s).
	ServerStopTimeout time.Duration
	// Stdout / Stderr receive the children's output, each line prefixed
	// "[rank N] " or "[srv N] ".  Defaults: os.Stdout / os.Stderr.
	Stdout, Stderr io.Writer
	// Timeout kills every rank if the run outlives it (0 = no limit).
	Timeout time.Duration
	// Env, when non-nil, replaces the children's environment.
	Env []string
	// OnServerRestart is invoked just before a crashed server is
	// restarted (attempt counts from 1) — the hook the flight-recorder
	// machinery uses to preserve the dead instance's dump before the
	// replacement overwrites it.
	OnServerRestart func(idx, attempt int)
}

// RendezvousFD is the file descriptor number at which rank 0's child
// process inherits the pre-bound rendezvous listener, and each
// I/O-server child its pre-bound service listener (the first
// ExtraFiles slot).
const RendezvousFD = 3

// ListenerFromFD adopts an inherited listening socket, e.g. the
// rendezvous listener the launcher passes rank 0 at RendezvousFD.
func ListenerFromFD(fd int) (net.Listener, error) {
	f := os.NewFile(uintptr(fd), "rendezvous")
	if f == nil {
		return nil, fmt.Errorf("transport: invalid inherited fd %d", fd)
	}
	defer f.Close()
	ln, err := net.FileListener(f)
	if err != nil {
		return nil, fmt.Errorf("transport: adopting inherited fd %d: %w", fd, err)
	}
	return ln, nil
}

// bindInherited binds an ephemeral 127.0.0.1 listener and returns its
// address plus the dup'd file that keeps the socket alive for a child.
func bindInherited() (addr string, lf *os.File, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	addr = ln.Addr().String()
	lf, err = ln.(*net.TCPListener).File()
	ln.Close() // the dup in lf keeps the listening socket alive
	if err != nil {
		return "", nil, err
	}
	return addr, lf, nil
}

// Launch runs Size rank processes (plus Servers I/O-server processes)
// to completion.  The first rank or premature server to fail (or an
// overall timeout) kills the rest; the returned error names that first
// failure.
func Launch(opts LaunchOptions) error {
	if opts.Size <= 0 {
		return errors.New("transport: launch needs at least one rank")
	}
	if opts.Exe == "" || opts.Args == nil {
		return errors.New("transport: launch needs Exe and Args")
	}
	if opts.Servers > 0 && opts.ServerArgs == nil {
		return errors.New("transport: launch with Servers needs ServerArgs")
	}
	if opts.Stdout == nil {
		opts.Stdout = os.Stdout
	}
	if opts.Stderr == nil {
		opts.Stderr = os.Stderr
	}
	if opts.ServerStopTimeout <= 0 {
		opts.ServerStopTimeout = 10 * time.Second
	}

	rendezvous, lf, err := bindInherited()
	if err != nil {
		return fmt.Errorf("transport: binding rendezvous: %w", err)
	}
	defer lf.Close()

	serverAddrs := make([]string, opts.Servers)
	serverLfs := make([]*os.File, opts.Servers)
	for s := range serverLfs {
		addr, slf, err := bindInherited()
		if err != nil {
			return fmt.Errorf("transport: binding server %d listener: %w", s, err)
		}
		serverAddrs[s] = addr
		serverLfs[s] = slf
		defer slf.Close()
	}

	var outMu sync.Mutex
	rankCmds := make([]*exec.Cmd, opts.Size)
	var wMu sync.Mutex // server restarts append from supervision goroutines
	writers := make([]*prefixWriter, 0, 2*(opts.Size+opts.Servers))

	start := func(prefix string, args []string, extras ...*os.File) (*exec.Cmd, error) {
		cmd := exec.Command(opts.Exe, args...)
		if opts.Env != nil {
			cmd.Env = opts.Env
		}
		if len(extras) > 0 {
			cmd.ExtraFiles = extras
		}
		ow := &prefixWriter{mu: &outMu, w: opts.Stdout, prefix: []byte(prefix)}
		ew := &prefixWriter{mu: &outMu, w: opts.Stderr, prefix: []byte(prefix)}
		cmd.Stdout, cmd.Stderr = ow, ew
		wMu.Lock()
		writers = append(writers, ow, ew)
		wMu.Unlock()
		return cmd, cmd.Start()
	}

	// The servers run under a supervised pool: premature deaths restart
	// (within ServerRestarts) on the inherited listeners, so a crashed
	// server comes back at the same address mid-run.
	var pool *ServerPool
	if opts.Servers > 0 {
		pool, err = StartServerPool(ServerPoolOptions{
			Listeners:      serverLfs,
			MaxRestarts:    opts.ServerRestarts,
			RestartBackoff: opts.ServerRestartBackoff,
			OnRestart:      opts.OnServerRestart,
			StartProc: func(idx int, listener *os.File) (*exec.Cmd, error) {
				return start(fmt.Sprintf("[srv %d] ", idx), opts.ServerArgs(idx), listener)
			},
		})
		if err != nil {
			return err
		}
	}
	var killOnce sync.Once
	killAll := func() {
		killOnce.Do(func() {
			for _, c := range rankCmds {
				if c != nil && c.Process != nil {
					c.Process.Kill()
				}
			}
			if pool != nil {
				pool.Stop(false)
			}
		})
	}

	type childExit struct {
		idx int
		err error
	}
	exits := make(chan childExit, opts.Size)
	var firstErr error
	ranksRunning := 0
	for r := 0; r < opts.Size && firstErr == nil; r++ {
		var extras []*os.File
		if r == 0 {
			extras = append(extras, lf)
		}
		cmd, err := start(fmt.Sprintf("[rank %d] ", r), opts.Args(r, rendezvous, serverAddrs), extras...)
		if err != nil {
			firstErr = fmt.Errorf("transport: starting rank %d: %w", r, err)
			killAll()
			break
		}
		rankCmds[r] = cmd
		ranksRunning++
		go func(r int, c *exec.Cmd) { exits <- childExit{r, c.Wait()} }(r, cmd)
	}

	var timer <-chan time.Time
	if opts.Timeout > 0 {
		timer = time.After(opts.Timeout)
	}
	var poolFailures <-chan error
	var chaosTimer <-chan time.Time
	poolDone := make(chan struct{})
	if pool != nil {
		poolFailures = pool.Failures()
		go func() { pool.Wait(); close(poolDone) }()
		if opts.KillServerAfter > 0 {
			chaosTimer = time.After(opts.KillServerAfter)
		}
	} else {
		close(poolDone)
	}
	stopping := false // graceful server shutdown initiated
	srvDone := pool == nil
	var stopTimer <-chan time.Time
	for ranksRunning > 0 || !srvDone {
		if ranksRunning == 0 && !stopping {
			// Every rank is done: ask the servers to finish.
			stopping = true
			if firstErr != nil {
				killAll()
			} else if pool != nil {
				pool.Stop(true)
				stopTimer = time.After(opts.ServerStopTimeout)
			}
		}
		select {
		case e := <-exits:
			ranksRunning--
			if e.err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("transport: rank %d: %w", e.idx, e.err)
				}
				killAll()
			}
		case err := <-poolFailures:
			if firstErr == nil {
				firstErr = err
			}
			killAll()
		case <-poolDone:
			srvDone = true
			poolDone = nil // a nil channel never fires again
		case <-chaosTimer:
			pool.Kill(opts.KillServerIdx)
			chaosTimer = nil
		case <-timer:
			if firstErr == nil {
				firstErr = fmt.Errorf("transport: launch timed out after %v", opts.Timeout)
			}
			killAll()
			timer = nil
		case <-stopTimer:
			if firstErr == nil {
				firstErr = fmt.Errorf("transport: servers did not stop within %v", opts.ServerStopTimeout)
			}
			killAll()
			stopTimer = nil
		}
	}
	// Drain any shutdown-phase pool failure that raced the loop exit.
	if poolFailures != nil && firstErr == nil {
		select {
		case err := <-poolFailures:
			firstErr = err
		default:
		}
	}
	for _, w := range writers {
		w.flushTail()
	}
	return firstErr
}

// serverExitError classifies one server's exit.  Before the graceful
// shutdown any exit is premature death; during it only a real non-zero
// exit counts (dying to the stop signal or the escalation kill is the
// expected mechanism, not a failure).
func serverExitError(idx int, err error, stopping bool) error {
	if err == nil {
		if !stopping {
			return fmt.Errorf("transport: server %d exited before the ranks finished", idx)
		}
		return nil
	}
	if stopping {
		var xe *exec.ExitError
		if errors.As(err, &xe) && xe.ExitCode() == -1 {
			return nil // signal-terminated during shutdown
		}
	}
	return fmt.Errorf("transport: server %d: %w", idx, err)
}

// prefixWriter prefixes each complete line of one child stream; the
// shared mutex keeps ranks' lines from interleaving mid-line.  exec
// writes each stream from a single copier goroutine, so buf needs no
// lock of its own.
type prefixWriter struct {
	mu     *sync.Mutex
	w      io.Writer
	prefix []byte
	buf    []byte
}

func (p *prefixWriter) Write(b []byte) (int, error) {
	p.buf = append(p.buf, b...)
	for {
		i := bytes.IndexByte(p.buf, '\n')
		if i < 0 {
			return len(b), nil
		}
		p.mu.Lock()
		p.w.Write(p.prefix)
		p.w.Write(p.buf[:i+1])
		p.mu.Unlock()
		p.buf = p.buf[i+1:]
	}
}

// flushTail emits any unterminated final line after the child exits.
func (p *prefixWriter) flushTail() {
	if len(p.buf) == 0 {
		return
	}
	p.mu.Lock()
	p.w.Write(p.prefix)
	p.w.Write(p.buf)
	p.w.Write([]byte("\n"))
	p.mu.Unlock()
	p.buf = nil
}
