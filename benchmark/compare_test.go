package main

import "testing"

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	bw := metricDef{Name: "write_bw", Better: higher, Bound: 0.10}
	cost := metricDef{Name: "cpu_s_per_gb", Better: lower, Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	if c := judge(bw, steady, scale(0.95)); c.note == "" {
		t.Error("a median 5% worse with a 2% spread carries no note")
	}
	if c := judge(bw, steady, scale(0.99)); c.note != "" {
		t.Errorf("a median within the spread carries the note%s", c.note)
	}
	for _, c := range []struct {
		d        metricDef
		old, new []float64
		want     string
	}{
		{bw, steady, steady, verdictSame},
		{bw, steady, scale(1.2), verdictBetter},
		{bw, steady, scale(0.85), verdictWorse},
		{bw, steady, scale(0.95), verdictSame}, // worse, but within the bound
		{cost, steady, scale(1.2), verdictWorse},
		{cost, steady, scale(0.8), verdictBetter},
		{bw, steady, noisy, verdictUnresolved},
		{bw, noisy, steady, verdictUnresolved},
	} {
		if got := judge(c.d, c.old, c.new).verdict; got != c.want {
			t.Errorf("%s old %v new %v: verdict %s, want %s", c.d.Name, c.old[:3], c.new[:3], got, c.want)
		}
	}
}
