package trace

import (
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Recorder is the flight recorder: a process's recent spans and
// instants, read from a small Collector that is on even when -trace is
// off, dumped to disk as a readable post-mortem.  Dumps are written
// atomically (tmp + rename) and triggered by SIGQUIT, collective faults,
// watchdog stalls, server shutdown — and, so that a SIGKILLed process
// still leaves its dying breath behind, by a periodic persist loop that
// keeps the on-disk dump no older than the persist interval.  All
// methods are nil-safe.
type Recorder struct {
	path     string
	proc     string
	col      *Collector
	counters func() string

	mu      sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	started bool
}

// RecorderBufSize is the per-rank ring size of the collector a process
// keeps for its recorder alone: small enough to be always-on, large
// enough to hold the last few windows of activity.
const RecorderBufSize = 512

// NewRecorder creates a flight recorder dumping col's span ring to path.
// counters, when non-nil, is printed between the dump's header and the
// spans.  It runs on the persist loop's goroutine, concurrently with the
// process's work, so it must read only what is safe to read from there:
// a server passes its Stats, which are atomic, and a rank passes nil,
// because core.Stats belongs to the rank's own goroutine.  An empty path
// returns nil: recording disabled.
func NewRecorder(path, proc string, col *Collector, counters func() string) *Recorder {
	if path == "" {
		return nil
	}
	return &Recorder{path: path, proc: proc, col: col, counters: counters}
}

// Dump writes the post-mortem file: reason, counters, and the most
// recent spans per rank including in-flight ones.
func (r *Recorder) Dump(reason string) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder: %s\nreason: %s\ntime: %s\n\n",
		r.proc, reason, time.Now().Format(time.RFC3339Nano))
	if r.counters != nil {
		fmt.Fprintf(&b, "counters: %s\n\n", r.counters())
	}
	b.WriteString("recent events (most recent last, * = in flight):\n")
	b.WriteString(r.col.Forensics(32))
	r.mu.Lock()
	defer r.mu.Unlock()
	tmp := r.path + ".tmp"
	if err := os.WriteFile(tmp, []byte(b.String()), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, r.path)
}

// Start launches the periodic persist loop and the SIGQUIT dump
// handler.  interval <= 0 selects the default 250ms.
func (r *Recorder) Start(interval time.Duration) {
	if r == nil {
		return
	}
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return
	}
	r.started = true
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	r.mu.Unlock()

	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		defer close(r.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				r.Dump("periodic")
			case <-quit:
				r.Dump("SIGQUIT")
			case <-r.stop:
				signal.Stop(quit)
				return
			}
		}
	}()
}

// Stop ends the persist loop, leaving the last dump in place.
func (r *Recorder) Stop() {
	if r == nil {
		return
	}
	r.mu.Lock()
	started := r.started
	if started {
		r.started = false
		close(r.stop)
	}
	r.mu.Unlock()
	if started {
		<-r.done
	}
}
