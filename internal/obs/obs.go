// Package obs is the cluster-wide metrics plane: a typed, low-overhead
// metrics registry shared by every layer of the stack (core, mpi,
// transport, storage, ioserver) and exposed three ways — a
// Prometheus-text HTTP endpoint per process (http.go), a binary
// snapshot form that crosses the wire and merges across processes
// (snapshot.go), and an always-on flight recorder that preserves a
// crashing process's last spans (recorder.go).
//
// The registry follows the repo's nil-receiver convention: a nil
// *Registry hands out nil handles, and every handle method no-ops on a
// nil receiver, so instrumentation sites are never guarded by a flag.
// A live Counter costs one atomic add on the hot path and never
// allocates, which is what keeps the steady-state collective window at
// zero allocations with metrics on (see bench.Obs and the
// allocation-regression suite).
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Kind tags a metric's type in snapshots and the exposition.
type Kind byte

// The three metric kinds.
const (
	KindCounter Kind = 'c'
	KindGauge   Kind = 'g'
	KindHist    Kind = 'h'
)

// Label is one constant key/value pair attached to a metric at
// registration time (e.g. {op="read"}).
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing metric.  One atomic add per
// Inc/Add; nil-safe.
type Counter struct {
	name   string
	help   string
	labels []Label
	v      atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reports the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-to-current-value metric.  A gauge registered with
// GaugeFunc reads its value through the callback instead, which exposes
// an existing atomic counter with zero hot-path cost.
type Gauge struct {
	name   string
	help   string
	labels []Label
	v      atomic.Int64
	fn     atomic.Pointer[func() int64] // re-registration replaces it under a live scrape
}

// Set replaces the value (no-op for GaugeFunc gauges and on nil).
func (g *Gauge) Set(v int64) {
	if g != nil && g.fn.Load() == nil {
		g.v.Store(v)
	}
}

// Add adjusts the value by n (no-op for GaugeFunc gauges and on nil).
func (g *Gauge) Add(n int64) {
	if g != nil && g.fn.Load() == nil {
		g.v.Add(n)
	}
}

// Value reports the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	if fn := g.fn.Load(); fn != nil {
		return (*fn)()
	}
	return g.v.Load()
}

// Hist is a log-bucketed histogram metric — the same fixed power-of-two
// buckets as trace.Histogram, so per-process histograms merge across
// the cluster by plain bucket addition.
type Hist struct {
	name   string
	help   string
	labels []Label
	h      trace.Histogram
}

// Observe records one value.
func (h *Hist) Observe(v int64) {
	if h != nil {
		h.h.Add(v)
	}
}

// ObserveSince records the nanoseconds elapsed since t0.
func (h *Hist) ObserveSince(t0 time.Time) {
	if h != nil {
		h.h.Add(int64(time.Since(t0)))
	}
}

// Data returns the histogram's raw buckets (zero value on nil).
func (h *Hist) Data() trace.HistData {
	if h == nil {
		return trace.HistData{}
	}
	return h.h.Data()
}

// Registry holds a process's metrics in registration order.  All
// methods are safe for concurrent use; a nil *Registry hands out nil
// (no-op) handles.
type Registry struct {
	mu       sync.Mutex
	order    []entry
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Hist
}

// entry is one registered metric: exactly one handle is set.
type entry struct {
	c *Counter
	g *Gauge
	h *Hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Hist),
	}
}

// metricKey is the identity of a metric: name plus its sorted constant
// labels.  Registering the same identity twice returns the same handle.
func metricKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	k := name
	for _, l := range labels {
		k += "\x00" + l.Key + "\x01" + l.Value
	}
	return k
}

func sortLabels(labels []Label) []Label {
	if len(labels) < 2 {
		return labels
	}
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Counter registers (or retrieves) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	labels = sortLabels(labels)
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[key]; ok {
		return c
	}
	c := &Counter{name: name, help: help, labels: labels}
	r.counters[key] = c
	r.order = append(r.order, entry{c: c})
	return c
}

// Gauge registers (or retrieves) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	labels = sortLabels(labels)
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[key]; ok {
		return g
	}
	g := &Gauge{name: name, help: help, labels: labels}
	r.gauges[key] = g
	r.order = append(r.order, entry{g: g})
	return g
}

// GaugeFunc registers a gauge whose value is read through fn at
// exposition time — the way existing atomic counters (wire bytes,
// retries, server op tallies) join the registry without any change to
// their hot paths.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) *Gauge {
	g := r.Gauge(name, help, labels...)
	if g != nil {
		g.fn.Store(&fn)
	}
	return g
}

// Hist registers (or retrieves) a histogram.
func (r *Registry) Hist(name, help string, labels ...Label) *Hist {
	if r == nil {
		return nil
	}
	labels = sortLabels(labels)
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[key]; ok {
		return h
	}
	h := &Hist{name: name, help: help, labels: labels}
	r.hists[key] = h
	r.order = append(r.order, entry{h: h})
	return h
}

// each visits every metric in registration order with its current
// value, under a consistent view of the registration list.
func (r *Registry) each(fn func(m Metric)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	order := append([]entry(nil), r.order...)
	r.mu.Unlock()
	for _, e := range order {
		switch {
		case e.c != nil:
			fn(Metric{Kind: KindCounter, Name: e.c.name, Help: e.c.help, Labels: e.c.labels, Value: e.c.Value()})
		case e.g != nil:
			fn(Metric{Kind: KindGauge, Name: e.g.name, Help: e.g.help, Labels: e.g.labels, Value: e.g.Value()})
		default:
			fn(Metric{Kind: KindHist, Name: e.h.name, Help: e.h.help, Labels: e.h.labels, Hist: e.h.h.Data()})
		}
	}
}
