package trace

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"time"
)

// Histogram is a log-bucketed latency histogram: bucket i counts values
// v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).  Buckets are
// fixed, so histograms from different ranks merge by plain addition —
// the property the world-level collector relies on.  Safe for
// concurrent use.
type Histogram struct {
	mu       sync.Mutex
	counts   [65]int64
	count    int64
	sum      int64
	min, max int64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketHi is the largest value of bucket i.
func bucketHi(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return 1<<62 - 1 + 1<<62 // MaxInt64
	}
	return 1<<i - 1
}

// Add observes one value (negative values count as 0).
func (h *Histogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	h.counts[bucketOf(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Merge folds o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	o.mu.Lock()
	counts, count, sum, mn, mx := o.counts, o.count, o.sum, o.min, o.max
	o.mu.Unlock()
	if count == 0 {
		return
	}
	h.mu.Lock()
	for i, c := range counts {
		h.counts[i] += c
	}
	if h.count == 0 || mn < h.min {
		h.min = mn
	}
	if mx > h.max {
		h.max = mx
	}
	h.count += count
	h.sum += sum
	h.mu.Unlock()
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum reports the total of all observations.
func (h *Histogram) Sum() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Min and Max report the observed extremes (0 when empty).
func (h *Histogram) Min() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max reports the largest observation (0 when empty).
func (h *Histogram) Max() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Mean reports the average observation (0 when empty).
func (h *Histogram) Mean() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}

// Quantile returns an upper bound on the q-quantile (q in [0,1]): the
// top of the bucket holding the q·count-th observation, clamped to the
// observed maximum.
func (h *Histogram) Quantile(q float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(h.count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			hi := bucketHi(i)
			if hi > h.max {
				hi = h.max
			}
			return hi
		}
	}
	return h.max
}

// BucketHi is the largest value of log bucket i — the bucket upper
// bounds exported for histogram serialization (the obs snapshot and the
// Prometheus exposition).
func BucketHi(i int) int64 { return bucketHi(i) }

// HistData is the raw content of a Histogram: the fixed log buckets and
// the summary fields.  It is the exchange form used by cross-process
// metric snapshots — two HistDatas merge by plain bucket addition,
// exactly like the live histograms they came from.
type HistData struct {
	Counts   [65]int64
	Count    int64
	Sum      int64
	Min, Max int64
}

// Data returns a copy of the histogram's buckets and summary fields.
func (h *Histogram) Data() HistData {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistData{Counts: h.counts, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
}

// Merge folds o into d by plain addition, the HistData analogue of
// Histogram.Merge for aggregators that never observe values themselves.
func (d *HistData) Merge(o HistData) {
	if o.Count == 0 {
		return
	}
	for i, c := range o.Counts {
		d.Counts[i] += c
	}
	if d.Count == 0 || o.Min < d.Min {
		d.Min = o.Min
	}
	if o.Max > d.Max {
		d.Max = o.Max
	}
	d.Count += o.Count
	d.Sum += o.Sum
}

// Mean reports the average of the summarized observations (0 when empty).
func (d HistData) Mean() int64 {
	if d.Count == 0 {
		return 0
	}
	return d.Sum / d.Count
}

// Quantile returns an upper bound on the q-quantile of the summarized
// observations, as Histogram.Quantile does for a live histogram.
func (d HistData) Quantile(q float64) int64 {
	if d.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(d.Count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range d.Counts {
		cum += c
		if cum >= target {
			hi := bucketHi(i)
			if hi > d.Max {
				hi = d.Max
			}
			return hi
		}
	}
	return d.Max
}

// Metrics is a set of per-phase histograms.  Safe for concurrent use.
type Metrics struct {
	mu    sync.Mutex
	hists map[Phase]*Histogram
}

// NewMetrics returns an empty metric set.
func NewMetrics() *Metrics { return &Metrics{hists: make(map[Phase]*Histogram)} }

// Observe records one span duration for a phase.
func (m *Metrics) Observe(ph Phase, ns int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	h := m.hists[ph]
	if h == nil {
		h = &Histogram{}
		m.hists[ph] = h
	}
	m.mu.Unlock()
	h.Add(ns)
}

// Hist returns the histogram of a phase, or nil when nothing was
// observed for it.
func (m *Metrics) Hist(ph Phase) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hists[ph]
}

// Merge folds o's histograms into m.
func (m *Metrics) Merge(o *Metrics) {
	if m == nil || o == nil {
		return
	}
	o.mu.Lock()
	phases := make([]Phase, 0, len(o.hists))
	for ph := range o.hists {
		phases = append(phases, ph)
	}
	o.mu.Unlock()
	for _, ph := range phases {
		oh := o.Hist(ph)
		m.mu.Lock()
		h := m.hists[ph]
		if h == nil {
			h = &Histogram{}
			m.hists[ph] = h
		}
		m.mu.Unlock()
		h.Merge(oh)
	}
}

// Phases lists the observed phases in stable (sorted) order.
func (m *Metrics) Phases() []Phase {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Phase, 0, len(m.hists))
	for ph := range m.hists {
		out = append(out, ph)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the metric set as one line per phase, in stable order.
func (m *Metrics) String() string {
	var b []byte
	for _, ph := range m.Phases() {
		h := m.Hist(ph)
		b = append(b, fmt.Sprintf("%-22s count=%-7d total=%-10v mean=%-9v p50=%-9v p99=%-9v max=%v\n",
			ph, h.Count(),
			time.Duration(h.Sum()).Round(time.Microsecond),
			time.Duration(h.Mean()).Round(time.Microsecond),
			time.Duration(h.Quantile(0.5)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.99)).Round(time.Microsecond),
			time.Duration(h.Max()).Round(time.Microsecond))...)
	}
	return string(b)
}
