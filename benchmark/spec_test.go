package main

import (
	"reflect"
	"regexp"
	"testing"
)

// TestSpecMatchesBenchmarkJSON holds BENCHMARK.json and the Go tables in
// agreement, both ways: names, units, directions, bounds, order.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	if err := checkSpec("../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
}

// TestSpecWithinContract checks the declared surface against the limits
// the driver refuses a benchmark for.
func TestSpecWithinContract(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not a legal name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloads {
		name(w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1 to 200", w.name, len(w.why))
		}
		if w.traceOps < 10 {
			t.Errorf("workload %s: %d traced ops are too few for a p90", w.name, w.traceOps)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	setup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is not a legal unit", d.Name, d.Unit)
		}
		if d.Better != higher && d.Better != lower {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		if d.Source == "" || d.Moves == "" {
			t.Errorf("metric %s: no source or no expected effect recorded", d.Name)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

func TestRunOrderAlternates(t *testing.T) {
	first, second, third := runOrder(0), runOrder(1), runOrder(2)
	if len(first) != len(workloads) {
		t.Fatalf("order has %d workloads, want %d", len(first), len(workloads))
	}
	for i := range first {
		if first[i] != workloads[i].name {
			t.Errorf("run 0 position %d is %s, want %s", i, first[i], workloads[i].name)
		}
		if second[i] != first[len(first)-1-i] {
			t.Errorf("run 1 is not run 0 reversed at position %d: %v", i, second)
		}
	}
	if !reflect.DeepEqual(first, third) {
		t.Errorf("run 2 %v differs from run 0 %v", third, first)
	}
}
