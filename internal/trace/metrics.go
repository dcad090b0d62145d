package trace

import "math/bits"

// HistData is a log-bucketed latency histogram: bucket i counts values
// v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i) — one bucket per
// power of two.  Buckets are fixed, so histograms from different ranks
// merge by plain addition — the property the world-level collector
// relies on.  It is a plain value: the tracer keeps one per phase under
// its own mutex.
type HistData struct {
	Counts   [65]int64
	Count    int64
	Sum      int64
	Min, Max int64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketHi is the largest value of log bucket i.
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
func (d *HistData) Add(v int64) {
	if v < 0 {
		v = 0
	}
	d.Counts[bucketOf(v)]++
	if d.Count == 0 || v < d.Min {
		d.Min = v
	}
	if v > d.Max {
		d.Max = v
	}
	d.Count++
	d.Sum += v
}

// Merge folds o into d; the result equals observing the union of their
// samples.
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

// Mean reports the average observation (0 when empty).
func (d HistData) Mean() int64 {
	if d.Count == 0 {
		return 0
	}
	return d.Sum / d.Count
}

// Quantile returns an upper bound on the q-quantile (q in [0,1]): the
// top of the bucket holding the q·count-th observation, clamped to the
// observed maximum.
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
			return min(bucketHi(i), d.Max)
		}
	}
	return d.Max
}
