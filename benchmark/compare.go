package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Verdicts of a comparison.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// comparison is one row: one end-to-end metric on one workload.
type comparison struct {
	oldQ [3]float64 // q1, median, q3
	newQ [3]float64
	// change is (new-old)/old, signed so that positive is an improvement.
	change  float64
	verdict string
	// note flags a median that worsened by more than either side's own
	// spread yet stayed within the bound: not a regression by the
	// benchmark's rule, but not noise either.
	note string
}

// judge compares the two sides' values of one metric.  The verdict is
// unresolved when either side's own spread (IQR over median) exceeds the
// bound: the runs cannot then tell a regression of that size from noise.
// It is worse when the median worsened by more than the bound, better
// when it improved by more than the old side's spread, and same otherwise.
func judge(d metricDef, old, new []float64) comparison {
	var c comparison
	c.oldQ[0], c.oldQ[1], c.oldQ[2] = quartiles(old)
	c.newQ[0], c.newQ[1], c.newQ[2] = quartiles(new)
	c.change = (c.newQ[1] - c.oldQ[1]) / c.oldQ[1]
	if d.Better == lower {
		c.change = -c.change
	}
	oldSpread := (c.oldQ[2] - c.oldQ[0]) / c.oldQ[1]
	newSpread := (c.newQ[2] - c.newQ[0]) / c.newQ[1]
	switch {
	case oldSpread > d.Bound || newSpread > d.Bound:
		c.verdict = verdictUnresolved
	case c.change < -d.Bound:
		c.verdict = verdictWorse
	case c.change > oldSpread:
		c.verdict = verdictBetter
	default:
		c.verdict = verdictSame
		if spread := max(oldSpread, newSpread); c.change < -spread {
			c.note = fmt.Sprintf(" (worsened by %.3f, spread %.3f)", -c.change, spread)
		}
	}
	return c
}

func loadResults(path string) (*suiteResults, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sr suiteResults
	if err := json.Unmarshal(data, &sr); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sr, nil
}

// errDisagree is returned when a comparison has a worse or unresolved row.
var errDisagree = errors.New("comparison has rows that are worse or unresolved")

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files, every ratio with its base, and reports failures and any
// row that is worse or unresolved as an error.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	old, err := loadResults(oldPath)
	if err != nil {
		return err
	}
	new, err := loadResults(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "old: %s (%d runs, seed %d)\n     %s\nnew: %s (%d runs, seed %d)\n     %s\n",
		oldPath, old.Runs, old.Seed, old.Stamp, newPath, new.Runs, new.Seed, new.Stamp)
	fmt.Fprintf(w, "%-9s %-13s %-5s %34s %34s %18s %6s  %s\n", "workload", "metric", "unit",
		"old median [q1, q3]", "new median [q1, q3]", "new/old (base old)", "bound", "verdict")
	bad := false
	for _, wl := range workloads {
		for _, d := range endToEnd {
			ov, nv := old.Values[wl.name][d.Name], new.Values[wl.name][d.Name]
			if len(ov) == 0 || len(nv) == 0 {
				return fmt.Errorf("%s %s: missing from a result file", wl.name, d.Name)
			}
			c := judge(d, ov, nv)
			fmt.Fprintf(w, "%-9s %-13s %-5s %12.6g [%9.5g,%9.5g] %12.6g [%9.5g,%9.5g] %7.4f (%9.5g) %6.2f  %s%s\n",
				wl.name, d.Name, d.Unit, c.oldQ[1], c.oldQ[0], c.oldQ[2], c.newQ[1], c.newQ[0], c.newQ[2],
				c.newQ[1]/c.oldQ[1], c.oldQ[1], d.Bound, c.verdict, c.note)
			bad = bad || c.verdict == verdictWorse || c.verdict == verdictUnresolved
		}
		// fail_ratio has bound 0: any increase is a regression.
		of := float64(old.Failed[wl.name]) / float64(old.Attempted[wl.name])
		nf := float64(new.Failed[wl.name]) / float64(new.Attempted[wl.name])
		v := verdictSame
		if nf > of {
			v, bad = verdictWorse, true
		} else if nf < of {
			v = verdictBetter
		}
		fmt.Fprintf(w, "%-9s %-13s %-5s %12.6g %47.6g %49s  %s\n", wl.name, "fail_ratio", "ratio", of, nf, "0.00", v)
	}
	if bad {
		return errDisagree
	}
	return nil
}
