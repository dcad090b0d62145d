package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// The suite: every workload, several runs each, every round of every run
// a fresh child process so pool, program cache, heap and RSS start clean,
// in an order that alternates A..G, G..A so machine drift hits all
// workloads alike.

// suiteResults is the file -all writes and -compare reads.
type suiteResults struct {
	Stamp   string `json:"stamp"`
	Seed    int64  `json:"seed"`
	Seconds int    `json:"seconds"`
	Runs    int    `json:"runs"`
	// Claim is always null: the benchmark measures, a later change claims.
	Claim *string `json:"claim"`
	// Order is the workload order of each run.
	Order [][]string `json:"order"`
	// Values holds one value per run for each end-to-end metric of each workload.
	Values    map[string]map[string][]float64 `json:"values"`
	Attempted map[string]int                  `json:"attempted"`
	Failed    map[string]int                  `json:"failed"`
	// Layers holds the per-layer ledger of one traced run per workload
	// (with -trace 1).
	Layers map[string]map[string]float64 `json:"layers,omitempty"`
}

// runOrder is the order of the run-th pass over the workloads.
func runOrder(run int) []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if run%2 == 0 {
			names[i] = w.name
		} else {
			names[len(workloads)-1-i] = w.name
		}
	}
	return names
}

// tracedChild runs one workload's traced pass in a child process and
// parses its result line.
func tracedChild(o options, name string) (result, error) {
	o.workload, o.trace = name, 1
	stdout, err := execSelf(o)
	if err != nil {
		return result{}, err
	}
	return parseResult(stdout)
}

// lastLine splits a child's standard output into its last non-empty
// line, which is its result, and what it printed before that.
func lastLine(stdout []byte) (before, last []byte) {
	trimmed := bytes.TrimRight(stdout, "\n")
	i := bytes.LastIndexByte(trimmed, '\n') + 1
	return trimmed[:i], trimmed[i:]
}

// parseResult decodes the last line of a run's standard output.
func parseResult(stdout []byte) (result, error) {
	_, last := lastLine(stdout)
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("result line %q: %w", last, err)
	}
	return res, nil
}

func suite(o options) error {
	sr := suiteResults{
		Stamp: stamp(o.tmp), Seed: o.seed, Seconds: o.seconds, Runs: o.runs,
		Values:    make(map[string]map[string][]float64),
		Attempted: make(map[string]int),
		Failed:    make(map[string]int),
	}
	fmt.Println(sr.Stamp)
	for run := 0; run < o.runs; run++ {
		order := runOrder(run)
		sr.Order = append(sr.Order, order)
		for _, name := range order {
			wl, err := workloadByName(name)
			if err != nil {
				return err
			}
			o.workload = name
			res, err := endToEndRun(wl, o.seconds, o.childRound)
			if err != nil {
				return err
			}
			if sr.Values[name] == nil {
				sr.Values[name] = make(map[string][]float64)
			}
			for m, v := range res.Metrics {
				sr.Values[name][m] = append(sr.Values[name][m], v.Value)
			}
			sr.Attempted[name] += res.Attempted
			sr.Failed[name] += res.Failed
			fmt.Printf("run %d/%d %-9s write_eff %9.5f  read_eff %9.5f  cpu_cost %9.4f  failed %d/%d\n",
				run+1, o.runs, name, res.Metrics["write_eff"].Value, res.Metrics["read_eff"].Value, res.Metrics["cpu_cost"].Value, res.Failed, res.Attempted)
		}
	}
	if o.trace == 1 {
		sr.Layers = make(map[string]map[string]float64)
		for _, w := range workloads {
			res, err := tracedChild(o, w.name)
			if err != nil {
				return err
			}
			sr.Layers[w.name] = make(map[string]float64)
			for m, v := range res.Metrics {
				sr.Layers[w.name][m] = v.Value
			}
			sr.Attempted[w.name] += res.Attempted
			sr.Failed[w.name] += res.Failed
		}
	}
	printSuite(&sr)
	if o.resFile == "" {
		return nil
	}
	data, err := json.MarshalIndent(&sr, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.resFile, append(data, '\n'), 0o644)
}

// printSuite prints every end-to-end metric of every workload by name
// with its unit (median, quartiles, spread), then the per-layer table and
// the cross-workload guidelines when there was a traced pass.
func printSuite(sr *suiteResults) {
	fmt.Printf("\n%-9s %-13s %-6s %12s %12s %12s %8s %6s\n", "workload", "metric", "unit", "median", "q1", "q3", "iqr/med", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(sr.Values[w.name][d.Name])
			fmt.Printf("%-9s %-13s %-6s %12.6g %12.6g %12.6g %8.4f %6.2f\n", w.name, d.Name, d.Unit, q2, q1, q3, (q3-q1)/q2, d.Bound)
		}
		fmt.Printf("%-9s %-13s %-6s %12.6g   (%d failed of %d attempted)\n", w.name, "fail_ratio", "ratio",
			float64(sr.Failed[w.name])/float64(sr.Attempted[w.name]), sr.Failed[w.name], sr.Attempted[w.name])
	}
	if sr.Layers == nil {
		return
	}
	big, small := sr.Layers["vec16k"]["bench.write_bw"], sr.Layers["vec8"]["bench.write_bw"]
	fmt.Printf("guideline: vec16k bench.write_bw >= vec8 bench.write_bw: %v (%.6g vs %.6g MB/s)\n", big >= small, big, small)
	fmt.Printf("\n%-40s", "per-layer metric")
	for _, w := range workloads {
		fmt.Printf(" %11s", w.name)
	}
	fmt.Println()
	for _, d := range perLayer {
		fmt.Printf("%-40s", d.Name)
		for _, w := range workloads {
			fmt.Printf(" %11.5g", sr.Layers[w.name][d.Name])
		}
		exact := ""
		if d.Exact {
			exact = " exact"
		}
		fmt.Printf("  %s%s\n", d.Unit, exact)
	}
	for _, w := range workloads {
		for _, g := range guidelines(sr.Layers[w.name]) {
			fmt.Printf("guideline (%s): %s\n", w.name, g)
		}
	}
}
