package trace

import "testing"

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0}, {-5, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 40, 41},
	}
	for _, c := range cases {
		if got := bucketOf(max64(c.v, 0)); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
	// Bucket upper bounds: bucket i covers [2^(i-1), 2^i).
	if bucketHi(0) != 0 || bucketHi(1) != 1 || bucketHi(3) != 7 || bucketHi(11) != 2047 {
		t.Errorf("bucketHi = %d %d %d %d", bucketHi(0), bucketHi(1), bucketHi(3), bucketHi(11))
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func TestHistogramStats(t *testing.T) {
	var h HistData
	for _, v := range []int64{100, 200, 300, 400, 1000} {
		h.Add(v)
	}
	if h.Count != 5 || h.Sum != 2000 || h.Min != 100 || h.Max != 1000 || h.Mean() != 400 {
		t.Fatalf("count=%d sum=%d min=%d max=%d mean=%d",
			h.Count, h.Sum, h.Min, h.Max, h.Mean())
	}
	// Quantiles are bucket upper bounds clamped to the observed max.
	if q := h.Quantile(0.5); q < 100 || q > 511 {
		t.Errorf("p50 = %d, want within [100,511]", q)
	}
	if q := h.Quantile(1.0); q != 1000 {
		t.Errorf("p100 = %d, want clamped to max 1000", q)
	}
	if q := h.Quantile(0); q < 100 || q > 127 {
		t.Errorf("p0 = %d, want first bucket bound", q)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	var h HistData
	if h.Quantile(0.9) != 0 || h.Count != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

// TestHistogramMerge: merging two histograms must equal observing the
// union of their samples.
func TestHistogramMerge(t *testing.T) {
	var a, b, want HistData
	as := []int64{1, 5, 9, 1 << 20}
	bs := []int64{0, 2, 700, 1 << 30}
	for _, v := range as {
		a.Add(v)
		want.Add(v)
	}
	for _, v := range bs {
		b.Add(v)
		want.Add(v)
	}
	a.Merge(b)
	if a != want {
		t.Fatalf("merged = %+v, want %+v", a, want)
	}
	// Merging an empty histogram is a no-op.
	a.Merge(HistData{})
	if a != want {
		t.Fatal("merging empty histogram changed the data")
	}
}
