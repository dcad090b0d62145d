package core

import "repro/internal/obs"

// coreCounters is the handle's whole scrape plane: every core_* counter
// is an expression over Stats, so a site that writes Stats has nothing
// else to keep in step and the registry cannot disagree with the struct.
var coreCounters = [...]struct {
	name, help string
	value      func(*Stats) int64
}{
	{"core_collective_writes_total", "Collective write accesses completed.",
		func(s *Stats) int64 { return s.CollectiveWrites }},
	{"core_collective_reads_total", "Collective read accesses completed.",
		func(s *Stats) int64 { return s.CollectiveReads }},
	{"core_written_bytes_total", "Data bytes moved by collective and independent writes.",
		func(s *Stats) int64 { return s.BytesWritten }},
	{"core_read_bytes_total", "Data bytes moved by collective and independent reads.",
		func(s *Stats) int64 { return s.BytesRead }},

	{"core_windows_total", "File windows processed: IOP windows of collectives and sieve windows of independent accesses.",
		func(s *Stats) int64 { return s.SieveReads + s.SieveWrites }},
	{"core_windows_overlapped_total", "Windows whose storage I/O overlapped a neighbor's exchange (pipeline hits).",
		func(s *Stats) int64 { return s.WindowsOverlapped }},
	{"core_prereads_skipped_total", "Collective write windows written without a pre-read: covered by the merged fileviews, or direct.",
		func(s *Stats) int64 { return s.PreReadsSkipped }},
	{"core_sieve_reads_total", "Read windows processed, collective and independent.",
		func(s *Stats) int64 { return s.SieveReads }},
	{"core_sieve_writes_total", "Write windows processed, collective and independent.",
		func(s *Stats) int64 { return s.SieveWrites }},

	{"core_exchange_ns_total", "Nanoseconds in AP-IOP data exchange.",
		func(s *Stats) int64 { return s.ExchangeNs }},
	{"core_copy_ns_total", "Nanoseconds in pack/unpack and window merge copies.",
		func(s *Stats) int64 { return s.CopyNs }},
	{"core_storage_ns_total", "Nanoseconds in window storage I/O, collective and independent.",
		func(s *Stats) int64 { return s.StorageNs }},

	{"core_epochs_committed_total", "Epoch commit rounds completed.",
		func(s *Stats) int64 { return s.EpochsCommitted }},
	{"core_epoch_retries_total", "Epoch seal/commit rounds retried after a server bounce.",
		func(s *Stats) int64 { return s.EpochRetries }},
	{"core_epoch_aborts_total", "Epochs abandoned after a collective fault.",
		func(s *Stats) int64 { return s.EpochAborts }},

	{"core_program_compiles_total", "Datatype copy programs compiled (memo-cache misses).",
		func(s *Stats) int64 { return s.ProgramCompiles }},
	{"core_program_cache_hits_total", "Program memo-cache hits.",
		func(s *Stats) int64 { return s.ProgramCacheHits }},
}

// fileMetrics ties one handle's Stats to the process's counters.  The
// two are different aggregations — the ranks of a goroutine world share
// one registry, and handles come and go under it — so the handle
// publishes deltas: what its Stats gained since it last published.
type fileMetrics struct {
	counters  []*obs.Counter // by coreCounters index; nil with Options.Metrics unset
	published Stats
}

// newFileMetrics registers the core_* counters; a nil registry yields
// a fileMetrics whose publish does nothing.
func newFileMetrics(r *obs.Registry) fileMetrics {
	if r == nil {
		return fileMetrics{}
	}
	m := fileMetrics{counters: make([]*obs.Counter, len(coreCounters))}
	for i, c := range coreCounters {
		m.counters[i] = r.Counter(c.name, c.help)
	}
	return m
}

// publish brings the process's counters up to this handle's Stats.  It
// runs on the goroutine that owns Stats, once per collective window (so
// a scrape sees a collective in progress) and once per access; the
// counters are atomics, so a concurrent scrape is race-free.  It
// allocates nothing.
func (f *File) publish() {
	if f.om.counters == nil {
		return
	}
	for i, c := range f.om.counters {
		value := coreCounters[i].value
		if gained := value(&f.Stats) - value(&f.om.published); gained != 0 {
			c.Add(gained)
		}
	}
	f.om.published = f.Stats
}

// registerProgramCacheMetrics exposes the process-wide program cache on
// a registry as gauges reading the cache's own atomics — zero cost on
// the compile/lookup path.  Registration is idempotent per registry
// (obs dedupes by name), so every Open may call it.
func registerProgramCacheMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc("core_program_cache_size", "Compiled datatype programs resident in the memo cache.",
		programs.size)
	r.GaugeFunc("core_program_cache_evictions_total", "Programs evicted from the memo cache LRU.",
		programs.evictions.Load)
	r.GaugeFunc("core_program_compile_ns_total", "Nanoseconds spent compiling datatype programs.",
		programs.compileNs.Load)
}
