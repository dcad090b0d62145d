// Command benchmark is the repository's one benchmark: seven workloads
// over the whole stack, five end-to-end metrics per workload, and a
// per-layer ledger from a separate traced pass.  See README.md.
//
//	benchmark --workload vec8 --seed 1 --seconds 10 --trace 0   one run, end-to-end metrics
//	benchmark --workload vec8 --seed 1 --seconds 10 --trace 1   one run, per-layer metrics
//	benchmark -all [-runs 10] [-trace 1] [-o results.json]      every workload, interleaved
//	benchmark -compare old.json new.json                       verdict per (workload, metric)
//
// The last line of a run's standard output is its result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"time"
)

// processStart is as close to the start of the process as Go code gets;
// set-up time is measured from it.
var processStart = time.Now()

// rounds is the number of rounds of a run.  Each round of an end-to-end
// run is a child process of its own, so pool, program cache, heap, RSS
// and connections start clean five times and the run does not inherit
// whatever scheduling mode one process happened to settle in.
const rounds = 5

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	tmp, out string
	all      bool
	runs     int
	resFile  string
	compare  bool
	round    time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (one of the seven)")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "how long one run measures")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: the traced pass and layer probes")
	flag.StringVar(&o.tmp, "tmp", ".bench_build/tmp", "directory for the tier's files")
	flag.StringVar(&o.out, "out", "benchmark/out", "directory for span files")
	flag.BoolVar(&o.all, "all", false, "run every workload, -runs times, in alternating order")
	flag.IntVar(&o.runs, "runs", 10, "with -all: runs per workload, every one with -seed")
	flag.StringVar(&o.resFile, "o", "", "with -all: write the results to this file")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare old.json new.json")
	flag.DurationVar(&o.round, "round", 0, "what a run starts its child processes with: measure one round this long and print its report")
	flag.Parse()
	if err := o.dispatch(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func (o options) dispatch() error {
	if o.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return err
	}
	if err := checkSpec("BENCHMARK.json"); err != nil {
		return err
	}
	if o.all {
		return suite(o)
	}
	wl, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	if o.round > 0 {
		rep, err := measureRound(wl, o.seed, o.round, o.tmp, processStart)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(rep)
	}

	fmt.Printf("workload %s seed %d: %s\n%s\n", wl.name, o.seed, wl.why, stamp(o.tmp))
	var res result
	if o.trace == 0 {
		res, err = endToEndRun(wl, o.seconds, o.childRound)
	} else {
		res, err = tracedRun(wl, o.seed, o.seconds, o.tmp, o.out)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// execSelf re-executes the benchmark as a child process with o as its
// command line, waits for it, and returns its standard output.
func execSelf(o options) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace), "-tmp", o.tmp, "-out", o.out,
		"-round", o.round.String())
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %s: %w\n%s", o.workload, err, stdout)
	}
	return stdout, nil
}

// roundReport is one round of an end-to-end run: a cold set-up, the
// warm-up, and the timed write+read pairs of one process.
type roundReport struct {
	SetupS float64 `json:"setup_s"` // process start to first timed op
	RSSMB  float64 `json:"rss_mb"`  // ru_maxrss at the end
	// The round's timings relative to the reference kernel (reference.go):
	// median over ops of the op's bandwidth over the kernel's around it,
	// and CPU time per user byte over the kernel's time per byte.
	WriteEff float64 `json:"write_eff"`
	ReadEff  float64 `json:"read_eff"`
	CPUCost  float64 `json:"cpu_cost"`
	// The same in absolute units, which the sandbox cannot hold steady.
	WriteBW  float64 `json:"write_bw"` // MB/s per process
	ReadBW   float64 `json:"read_bw"`
	RefBW    float64 `json:"ref_bw"`
	CPUPerGB float64 `json:"cpu_s_per_gb"`

	Attempted int   `json:"attempted"`
	Failed    int   `json:"failed"`
	RankBytes int64 `json:"rank_bytes"` // user data per rank per op
	FileSize  int64 `json:"file_size"`
}

// measureRound sets the workload up, warms it up and times one round in
// this process.
func measureRound(wl *workload, seed int64, length time.Duration, tmp string, started time.Time) (roundReport, error) {
	res, err := run(runConfig{wl: wl, seed: seed, tmp: tmp, started: started, rounds: 1, roundTime: length})
	if err != nil {
		return roundReport{}, err
	}
	s := summarize(res)
	return roundReport{
		SetupS: res.setup.Seconds(), RSSMB: peakRSSMB(),
		WriteEff: s.writeEff[0], ReadEff: s.readEff[0], CPUCost: s.cpuCost[0],
		WriteBW: s.writeBW[0], ReadBW: s.readBW[0], RefBW: s.refBW[0], CPUPerGB: s.cpuPerGB[0],
		Attempted: res.attempted, Failed: res.failed,
		RankBytes: res.userBytes / ranks, FileSize: res.fileSize,
	}, nil
}

// childRound measures one round in a fresh child process.
func (o options) childRound(length time.Duration) (roundReport, error) {
	o.round = length
	stdout, err := execSelf(o)
	if err != nil {
		return roundReport{}, err
	}
	// A round that counted a failed op said so before its report.
	said, last := lastLine(stdout)
	os.Stdout.Write(said)
	var rep roundReport
	if err := json.Unmarshal(last, &rep); err != nil {
		return roundReport{}, fmt.Errorf("round report %q: %w", last, err)
	}
	return rep, nil
}

// endToEndRun measures the end-to-end metrics of one workload, untraced:
// five rounds of seconds/5 from round, each metric the median over them
// (the maximum for the peak resident set).
func endToEndRun(wl *workload, seconds int, round func(time.Duration) (roundReport, error)) (result, error) {
	cols := map[string][]float64{}
	var last roundReport
	attempted, failed := 0, 0
	for i := 0; i < rounds; i++ {
		rep, err := round(time.Duration(seconds) * time.Second / rounds)
		if err != nil {
			return result{}, err
		}
		for name, v := range map[string]float64{
			"write_eff": rep.WriteEff, "read_eff": rep.ReadEff, "cpu_cost": rep.CPUCost,
			"rss_peak_mb": rep.RSSMB, "setup_s": rep.SetupS,
			"write_bw": rep.WriteBW, "read_bw": rep.ReadBW, "cpu_s_per_gb": rep.CPUPerGB, "ref_bw": rep.RefBW,
		} {
			cols[name] = append(cols[name], v)
		}
		attempted, failed, last = attempted+rep.Attempted, failed+rep.Failed, rep
	}
	vals := make(map[string]float64, len(endToEnd))
	for _, d := range endToEnd {
		vals[d.Name] = median(cols[d.Name])
	}
	// The run's peak is its largest process.  The resident set of one
	// process is bimodal on the workloads with large set-up garbage (two
	// ranks' temporaries either overlap a collection or do not), and a
	// median of five flips between the modes where the maximum does not.
	vals["rss_peak_mb"] = slices.Max(cols["rss_peak_mb"])
	fmt.Printf("%d B per rank per op, file %d B, %d ops in %d rounds, each a process of its own\n",
		last.RankBytes, last.FileSize, attempted, rounds)
	for _, d := range endToEnd {
		fmt.Printf("per-round %-12s %.4g\n", d.Name, cols[d.Name])
	}
	fmt.Printf("in absolute units, held to no bound: write_bw %.5g MB/s  read_bw %.5g MB/s  cpu_s_per_gb %.4g s/GB  reference kernel %.5g MB/s\n",
		median(cols["write_bw"]), median(cols["read_bw"]), median(cols["cpu_s_per_gb"]), median(cols["ref_bw"]))
	printMetrics(endToEnd, vals)
	fmt.Printf("  %-42s %14.6g\n", "fail_ratio", float64(failed)/float64(attempted))
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metricsOf(endToEnd, vals)}, nil
}

// summary holds one value per round of an untraced pass.
type summary struct {
	writeEff, readEff, cpuCost []float64
	writeBW, readBW, refBW     []float64 // MB/s
	cpuPerGB                   []float64 // s/GB
}

func summarize(res *runResult) summary {
	var s summary
	for _, rr := range res.rounds {
		var w, r []float64
		for k := range rr.writeNs {
			w = append(w, res.rel(rr.writeNs[k], rr.writeRefNs[k]))
			r = append(r, res.rel(rr.readNs[k], rr.readRefNs[k]))
		}
		refNs := median(append(append([]float64(nil), rr.writeRefNs...), rr.readRefNs...))
		refBps := float64(res.refBytes) / (refNs / 1e9)
		cpuPerByte := rr.cpuS / (float64(2*len(rr.writeNs)) * float64(res.userBytes))
		s.writeEff, s.readEff = append(s.writeEff, median(w)), append(s.readEff, median(r))
		s.cpuCost = append(s.cpuCost, cpuPerByte*refBps)
		s.writeBW = append(s.writeBW, res.bwMBps(median(rr.writeNs)))
		s.readBW = append(s.readBW, res.bwMBps(median(rr.readNs)))
		s.refBW = append(s.refBW, refBps/1e6)
		s.cpuPerGB = append(s.cpuPerGB, cpuPerByte*1e9)
	}
	return s
}

// tracedRun produces the per-layer ledger of one workload: the traced
// round of fixed length, first, so that it meets the caches a fresh
// process has; a short untraced reference; and the layer probes, all in
// this process.
func tracedRun(wl *workload, seed int64, seconds int, tmp, out string) (result, error) {
	rec := newRecorder()
	res, err := run(runConfig{wl: wl, seed: seed, tmp: tmp, started: time.Now(), rec: rec, rounds: 1, fixedOps: wl.traceOps})
	if err != nil {
		return result{}, err
	}
	vals, err := ledger(wl, res, rec)
	if err != nil {
		return result{}, err
	}

	// Untraced reference, short: the base of bench.trace_overhead, and the
	// rounds whose spread is bench.round_spread.
	ref, err := run(runConfig{
		wl: wl, seed: seed, tmp: tmp, started: time.Now(),
		rounds: rounds, roundTime: time.Duration(seconds) * time.Second / 20,
	})
	if err != nil {
		return result{}, err
	}
	sum := summarize(ref)
	refBW := sum.writeBW
	tracedBW := res.bwMBps(median(res.rounds[0].writeNs))
	vals["bench.trace_overhead"] = 1 - tracedBW/median(refBW)
	q1, _, q3 := quartiles(refBW)
	vals["bench.round_spread"] = (q3 - q1) / median(refBW)
	vals["bench.write_bw"] = median(sum.writeBW)
	vals["bench.read_bw"] = median(sum.readBW)
	vals["bench.cpu_s_per_gb"] = median(sum.cpuPerGB)
	vals["bench.ref_pack_MBps"] = median(sum.refBW)

	attempted, failed := ref.attempted+res.attempted, ref.failed+res.failed
	vals["ioserver.tier_over_local"] = 0
	if wl.tier {
		// The same geometry on local memory, the base of tier_over_local.
		local, err := run(runConfig{
			wl: wl, seed: seed, tmp: tmp, started: time.Now(), onMem: true,
			rounds: 1, roundTime: time.Duration(seconds) * time.Second / 20,
		})
		if err != nil {
			return result{}, err
		}
		vals["ioserver.tier_over_local"] = median(refBW) / local.bwMBps(median(local.rounds[0].writeNs))
		attempted, failed = attempted+local.attempted, failed+local.failed
	}

	probes, err := runProbes(rec, time.Duration(seconds)*time.Second/100, tmp, wl, seed)
	if err != nil {
		return result{}, err
	}
	for k, v := range probes {
		vals[k] = v
	}
	path := fmt.Sprintf("%s/trace-%s.json", out, wl.name)
	if err := rec.write(path); err != nil {
		return result{}, err
	}

	fmt.Printf("traced round: %d write+read pairs; memcpy roofline over %d KiB arrays; spans in %s\n",
		wl.traceOps, roofBytes>>10, path)
	printMetrics(perLayer, vals)
	for _, g := range guidelines(vals) {
		fmt.Println("  guideline:", g)
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metricsOf(perLayer, vals)}, nil
}

// printMetrics prints every declared metric by name with its unit.
func printMetrics(defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		mark := ""
		if d.Exact {
			mark = "  exact"
		}
		fmt.Printf("  %-42s %14.6g %-8s%s\n", d.Name, vals[d.Name], d.Unit, mark)
	}
}

// guidelines states the self-consistency expectations one traced run can
// check.  They are information for the reader, not failures.
func guidelines(v map[string]float64) []string {
	verdict := func(ok bool) string {
		if ok {
			return "holds"
		}
		return "VIOLATED"
	}
	out := []string{
		fmt.Sprintf("fotf.pack_prog_MBps >= fotf.pack_walk_MBps: %s (%.4g vs %.4g)",
			verdict(v["fotf.pack_prog_MBps"] >= v["fotf.pack_walk_MBps"]), v["fotf.pack_prog_MBps"], v["fotf.pack_walk_MBps"]),
		fmt.Sprintf("storage.writev_over_loop >= 1: %s (%.4g)",
			verdict(v["storage.writev_over_loop"] >= 1), v["storage.writev_over_loop"]),
	}
	if t := v["ioserver.tier_over_local"]; t != 0 {
		out = append(out, fmt.Sprintf("ioserver.tier_over_local >= 0.5: %s (%.4g)", verdict(t >= 0.5), t))
	}
	return out
}
