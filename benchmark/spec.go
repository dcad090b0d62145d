package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
)

// The benchmark's declared surface: workload names, end-to-end metrics
// with their regression bounds, and the per-layer ledger.  BENCHMARK.json
// at the repository root mirrors these tables (spec_test.go holds the two
// in agreement); -compare takes its bounds from here.

// metricDef declares one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the baseline median a median may worsen by
	// Exact marks a per-layer count that must repeat identically between
	// two runs with one seed.
	Exact bool
	// Source is (s) benchmark span, (c) exported counter delta, (p)
	// isolated probe, (f) CPU profile of the traced round, or (d) derived
	// from other metrics of the same run.
	Source string
	// Moves names the end-to-end metric and workload this layer metric is
	// expected to move (the README's metric → end-to-end table).
	Moves string
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd are the metrics a user of the stack sees, per workload.
// fail_ratio of the issue is the attempted/failed pair of the result
// line: an end-to-end metric may never be 0, and a healthy fail ratio
// always is.  The bounds are what the sandbox's drift allows (README.md,
// "Noise method"), not the tenth the issue hoped for.
var endToEnd = []metricDef{
	{Name: "write_eff", Unit: "ratio", Better: higher, Bound: 0.25},
	{Name: "read_eff", Unit: "ratio", Better: higher, Bound: 0.25},
	{Name: "cpu_cost", Unit: "ratio", Better: lower, Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MB", Better: lower, Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
}

// perLayer is the ledger of single-layer metrics the traced pass emits.
var perLayer = []metricDef{
	// roof: denominators measured in the same process as everything they divide.
	{Name: "roof.memcpy_MBps", Unit: "MB/s", Better: higher, Source: "p", Moves: "nothing: a shift means the machine changed"},
	{Name: "roof.tcp_MBps", Unit: "MB/s", Better: higher, Source: "p", Moves: "nothing"},
	{Name: "roof.file_MBps", Unit: "MB/s", Better: higher, Source: "p", Moves: "nothing"},
	{Name: "roof.fsync_us", Unit: "us", Better: lower, Source: "p", Moves: "nothing"},

	{Name: "datatype.build_us", Unit: "us", Better: lower, Source: "p", Moves: "setup_s on irr"},
	{Name: "datatype.encode_bytes", Unit: "bytes", Better: lower, Exact: true, Source: "p", Moves: "setup_s on irr"},
	{Name: "datatype.codec_us", Unit: "us", Better: lower, Source: "p", Moves: "setup_s on irr"},

	{Name: "flatten.flatten_ms", Unit: "ms", Better: lower, Source: "p", Moves: "no listless workload (paper baseline)"},
	{Name: "flatten.list_bytes", Unit: "bytes", Better: lower, Exact: true, Source: "p", Moves: "no listless workload"},
	{Name: "flatten.packlist_MBps", Unit: "MB/s", Better: higher, Source: "p", Moves: "no listless workload; fotf.pack_prog_MBps over it is the paper's claim"},

	{Name: "fotf.compile_us", Unit: "us", Better: lower, Source: "p", Moves: "setup_s on irr"},
	{Name: "fotf.groups", Unit: "count", Better: lower, Exact: true, Source: "p", Moves: "write_eff/read_eff on irr"},
	{Name: "fotf.pack_walk_MBps", Unit: "MB/s", Better: higher, Source: "p", Moves: "write_eff/read_eff on indep8"},
	{Name: "fotf.pack_prog_MBps", Unit: "MB/s", Better: higher, Source: "p", Moves: "write_eff, cpu_cost on vec8 and irr, not vec16k"},
	{Name: "fotf.unpack_prog_MBps", Unit: "MB/s", Better: higher, Source: "p", Moves: "read_eff, cpu_cost on vec8 and irr, not vec16k"},
	{Name: "fotf.prog_over_memcpy", Unit: "ratio", Better: higher, Source: "d", Moves: "as fotf.pack_prog_MBps"},
	{Name: "fotf.startpos_ns", Unit: "ns", Better: lower, Source: "p", Moves: "write_eff/read_eff on indep8"},
	{Name: "fotf.buftodata_ns", Unit: "ns", Better: lower, Source: "p", Moves: "core.other_share, write_eff/read_eff on irr (window-edge navigation)"},
	{Name: "fotf.runs_Mruns_s", Unit: "Mruns/s", Better: higher, Source: "p", Moves: "write_eff/read_eff on tierview"},

	{Name: "core.setview_ms", Unit: "ms", Better: lower, Source: "s", Moves: "setup_s everywhere"},
	{Name: "core.write_op_p50_ms", Unit: "ms", Better: lower, Source: "s", Moves: "write_eff"},
	{Name: "core.write_op_p90_ms", Unit: "ms", Better: lower, Source: "s", Moves: "fsync/GC stalls the median hides, most on tier64"},
	{Name: "core.read_op_p50_ms", Unit: "ms", Better: lower, Source: "s", Moves: "read_eff"},
	{Name: "core.read_op_p90_ms", Unit: "ms", Better: lower, Source: "s", Moves: "stalls, most on tier64"},
	{Name: "core.copy_share", Unit: "ratio", Better: lower, Source: "c", Moves: "write_eff/read_eff on vec8, irr"},
	{Name: "core.exchange_share", Unit: "ratio", Better: lower, Source: "c", Moves: "write_eff/read_eff on vec16k, tcp16k"},
	{Name: "core.storage_share", Unit: "ratio", Better: lower, Source: "c", Moves: "write_eff/read_eff on tier64"},
	{Name: "core.other_share", Unit: "ratio", Better: lower, Source: "c", Moves: "the ledger's residue"},
	{Name: "core.windows_per_op", Unit: "count", Better: lower, Exact: true, Source: "c", Moves: "collective workloads"},
	{Name: "core.windows_overlapped_ratio", Unit: "ratio", Better: higher, Exact: true, Source: "c", Moves: "tier64"},
	{Name: "core.sieve_rw_per_op", Unit: "count", Better: lower, Exact: true, Source: "c", Moves: "write_eff/read_eff on indep8"},
	{Name: "core.prereads_skipped_ratio", Unit: "ratio", Better: higher, Exact: true, Source: "c", Moves: "write_eff on collective workloads"},
	{Name: "core.view_bytes_sent", Unit: "bytes", Better: lower, Exact: true, Source: "c", Moves: "setup_s"},
	{Name: "core.prog_cache_hit_ratio", Unit: "ratio", Better: higher, Source: "c", Moves: "setup_s"},
	{Name: "core.epoch_retries", Unit: "count", Better: lower, Exact: true, Source: "c", Moves: "write_eff on tier64"},

	{Name: "mpi.msgs_per_op", Unit: "count", Better: lower, Exact: true, Source: "c", Moves: "write_eff/read_eff on vec16k, tcp16k; not indep8"},
	{Name: "mpi.payload_bytes_per_user_byte", Unit: "ratio", Better: lower, Exact: true, Source: "c", Moves: "write_eff/read_eff on vec16k, tcp16k"},
	{Name: "mpi.recv_wait_share", Unit: "ratio", Better: lower, Source: "c", Moves: "write_eff/read_eff on tcp16k"},
	{Name: "mpi.barrier_us", Unit: "us", Better: lower, Source: "p", Moves: "vec16k"},
	{Name: "mpi.alltoall_MBps", Unit: "MB/s", Better: higher, Source: "p", Moves: "vec16k"},
	{Name: "mpi.tcp_barrier_us", Unit: "us", Better: lower, Source: "p", Moves: "tcp16k"},
	{Name: "mpi.tcp_alltoall_MBps", Unit: "MB/s", Better: higher, Source: "p", Moves: "tcp16k"},

	{Name: "transport.wire_bytes_per_payload_byte", Unit: "ratio", Better: lower, Exact: true, Source: "c", Moves: "tcp16k only"},
	{Name: "transport.tcp_rtt_us", Unit: "us", Better: lower, Source: "p", Moves: "tcp16k only"},
	{Name: "transport.tcp_stream_MBps", Unit: "MB/s", Better: higher, Source: "p", Moves: "write_eff/read_eff/cpu_cost on tcp16k only"},
	{Name: "transport.loop_stream_MBps", Unit: "MB/s", Better: higher, Source: "p", Moves: "vec16k"},
	{Name: "transport.tcp_over_roof", Unit: "ratio", Better: higher, Source: "d", Moves: "tcp16k only"},

	{Name: "storage.calls_per_op", Unit: "count", Better: lower, Exact: true, Source: "c", Moves: "write_eff/read_eff on indep8, tier64"},
	{Name: "storage.bytes_per_user_byte", Unit: "ratio", Better: lower, Exact: true, Source: "c", Moves: "write_eff on indep8 (RMW amplification)"},
	{Name: "storage.mem_write_MBps", Unit: "MB/s", Better: higher, Source: "p", Moves: "vec16k"},
	{Name: "storage.mem_read_MBps", Unit: "MB/s", Better: higher, Source: "p", Moves: "vec16k"},
	{Name: "storage.file_write_MBps", Unit: "MB/s", Better: higher, Source: "p", Moves: "tier64"},
	{Name: "storage.file_sync_us", Unit: "us", Better: lower, Source: "p", Moves: "tier64"},
	{Name: "storage.writev_over_loop", Unit: "ratio", Better: higher, Source: "p", Moves: "tierview (offset-list fallback)"},

	{Name: "ioserver.round_trips_per_op", Unit: "count", Better: lower, Exact: true, Source: "c", Moves: "tierview both directions, tier64 read_eff"},
	{Name: "ioserver.requests_per_op", Unit: "count", Better: lower, Exact: true, Source: "c", Moves: "tierview, tier64"},
	{Name: "ioserver.staged_writes_per_op", Unit: "count", Better: lower, Exact: true, Source: "c", Moves: "tier64 write_eff only"},
	{Name: "ioserver.epochs_per_op", Unit: "count", Better: lower, Exact: true, Source: "c", Moves: "tier64 write_eff only"},
	{Name: "ioserver.fsyncs_per_op", Unit: "count", Better: lower, Exact: true, Source: "c", Moves: "tier64 write_eff only"},
	{Name: "ioserver.view_cache_hit_ratio", Unit: "ratio", Better: higher, Exact: true, Source: "c", Moves: "setup_s on tierview"},
	{Name: "ioserver.stale_handles", Unit: "count", Better: lower, Exact: true, Source: "c", Moves: "tierview"},
	{Name: "ioserver.rtt_us", Unit: "us", Better: lower, Source: "p", Moves: "tierview both directions, tier64 read_eff"},
	{Name: "ioserver.raw_write_MBps", Unit: "MB/s", Better: higher, Source: "p", Moves: "tier64"},
	{Name: "ioserver.raw_read_MBps", Unit: "MB/s", Better: higher, Source: "p", Moves: "tier64 read_eff"},
	{Name: "ioserver.view_write_MBps", Unit: "MB/s", Better: higher, Source: "p", Moves: "tierview write_eff"},
	{Name: "ioserver.view_read_MBps", Unit: "MB/s", Better: higher, Source: "p", Moves: "tierview read_eff"},
	{Name: "ioserver.journal_append_MBps", Unit: "MB/s", Better: higher, Source: "p", Moves: "tier64 write_eff only"},
	{Name: "ioserver.journal_commit_us", Unit: "us", Better: lower, Source: "p", Moves: "tier64 write_eff only"},
	{Name: "ioserver.tier_over_local", Unit: "ratio", Better: higher, Source: "d", Moves: "tier64 (0 on workloads without the tier)"},

	{Name: "pool.mallocs_per_op", Unit: "count", Better: lower, Source: "c", Moves: "cpu_cost, rss_peak_mb on collective workloads"},
	{Name: "pool.alloc_kb_per_op", Unit: "KB", Better: lower, Source: "c", Moves: "cpu_cost, rss_peak_mb on collective workloads"},
	{Name: "pool.miss_ratio", Unit: "ratio", Better: lower, Source: "c", Moves: "cpu_cost, rss_peak_mb"},

	// cpu: where the process's CPU time goes during the traced round's
	// ops, by the innermost layer on the stack; the shares sum to 1.
	{Name: "cpu.datatype_share", Unit: "ratio", Better: lower, Source: "f", Moves: "cpu_cost on irr (per-op type encoding for the program cache)"},
	{Name: "cpu.fotf_share", Unit: "ratio", Better: lower, Source: "f", Moves: "cpu_cost, write_eff/read_eff on vec8, irr, indep8: copies and navigation"},
	{Name: "cpu.core_share", Unit: "ratio", Better: lower, Source: "f", Moves: "cpu_cost on the collective workloads"},
	{Name: "cpu.mpi_share", Unit: "ratio", Better: lower, Source: "f", Moves: "cpu_cost on vec16k, tcp16k"},
	{Name: "cpu.transport_share", Unit: "ratio", Better: lower, Source: "f", Moves: "cpu_cost on tcp16k only"},
	{Name: "cpu.storage_share", Unit: "ratio", Better: lower, Source: "f", Moves: "cpu_cost on vec16k (Mem copies), indep8 (sieve buffers)"},
	{Name: "cpu.ioserver_share", Unit: "ratio", Better: lower, Source: "f", Moves: "cpu_cost on tier64, tierview"},
	{Name: "cpu.pool_share", Unit: "ratio", Better: lower, Source: "f", Moves: "cpu_cost on the collective workloads"},
	{Name: "cpu.runtime_share", Unit: "ratio", Better: lower, Source: "f", Moves: "cpu_cost: collector, scheduler and netpoller, most on the tier workloads"},
	{Name: "cpu.bench_share", Unit: "ratio", Better: lower, Source: "f", Moves: "nothing: the oracle checks inside the traced round"},
	{Name: "cpu.other_share", Unit: "ratio", Better: lower, Source: "f", Moves: "nothing: the metrics and trace hooks of the layers"},

	{Name: "bench.write_bw", Unit: "MB/s", Better: higher, Source: "d", Moves: "nothing: write_eff in absolute units, which drift with the host"},
	{Name: "bench.read_bw", Unit: "MB/s", Better: higher, Source: "d", Moves: "nothing: read_eff in absolute units"},
	{Name: "bench.cpu_s_per_gb", Unit: "s/GB", Better: lower, Source: "d", Moves: "nothing: cpu_cost in absolute units"},
	{Name: "bench.ref_pack_MBps", Unit: "MB/s", Better: higher, Source: "p", Moves: "nothing: the reference kernel, the denominator of the end-to-end timings"},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: lower, Source: "d", Moves: "nothing: the benchmark's own cost"},
	{Name: "bench.round_spread", Unit: "ratio", Better: lower, Source: "d", Moves: "nothing: the benchmark's own noise"},
}

// metricValue is one reported number, as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricsOf labels values with the units their definitions declare; a
// value with no definition, or a definition with no value, is a bug in
// the benchmark and panics.
func metricsOf(defs []metricDef, vals map[string]float64) map[string]metricValue {
	if len(vals) != len(defs) {
		panic("benchmark: emitted metrics do not match the declared set")
	}
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			panic("benchmark: metric " + d.Name + " was not measured")
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}

// benchmarkJSON is the shape of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonMetric   `json:"end_to_end"`
	PerLayer   []jsonMetric   `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// declared renders the Go tables in BENCHMARK.json's shape.
func declared() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, jsonWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		b.EndToEnd = append(b.EndToEnd, jsonMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, jsonMetric{d.Name, d.Unit, d.Better, nil})
	}
	return b
}

// runSeconds is BENCHMARK.json's run_seconds: how long the driver lets
// one run measure.
const runSeconds = 10

// checkSpec reports an error when the BENCHMARK.json at path and the
// tables above disagree in any name, unit, direction, bound or order.
// Every run calls it, so the two cannot drift apart unnoticed even
// though the repository's own tests do not reach this module.
func checkSpec(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var got benchmarkJSON
	if err := json.Unmarshal(data, &got); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if want := declared(); !reflect.DeepEqual(got, want) {
		text, _ := json.MarshalIndent(want, "", "  ") // plain strings and numbers: cannot fail
		return fmt.Errorf("%s and spec.go/workloads.go disagree; the tables say:\n%s", path, text)
	}
	return nil
}
