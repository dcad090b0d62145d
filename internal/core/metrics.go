package core

import "repro/internal/obs"

// fileMetrics are the live scrape-plane counters of one file handle,
// mirroring the hot-path Stats fields with atomic counters so a
// concurrent /metrics scrape sees a race-free, current view of a
// collective in progress.  With Options.Metrics unset every handle is
// nil and every increment is a no-op through the nil receivers — the
// steady-state window loop stays allocation-free either way (asserted
// by the allocation-regression suite with metrics on).
type fileMetrics struct {
	collWrites *obs.Counter
	collReads  *obs.Counter
	writeBytes *obs.Counter
	readBytes  *obs.Counter

	windows     *obs.Counter
	overlapped  *obs.Counter
	preSkipped  *obs.Counter
	sieveReads  *obs.Counter
	sieveWrites *obs.Counter

	exchangeNs *obs.Counter
	copyNs     *obs.Counter
	storageNs  *obs.Counter

	epochsCommitted *obs.Counter
	epochRetries    *obs.Counter
	epochAborts     *obs.Counter

	progCompiles *obs.Counter
	progHits     *obs.Counter
}

// newFileMetrics registers the core_* metrics; a nil registry yields
// all-nil handles.
func newFileMetrics(r *obs.Registry) fileMetrics {
	if r == nil {
		return fileMetrics{}
	}
	return fileMetrics{
		collWrites: r.Counter("core_collective_writes_total", "Collective write accesses completed."),
		collReads:  r.Counter("core_collective_reads_total", "Collective read accesses completed."),
		writeBytes: r.Counter("core_written_bytes_total", "Data bytes moved by collective and independent writes."),
		readBytes:  r.Counter("core_read_bytes_total", "Data bytes moved by collective and independent reads."),

		windows:     r.Counter("core_windows_total", "IOP file windows processed."),
		overlapped:  r.Counter("core_windows_overlapped_total", "Windows whose storage I/O overlapped a neighbor's exchange (pipeline hits)."),
		preSkipped:  r.Counter("core_prereads_skipped_total", "Collective write windows written without a pre-read: covered by the merged fileviews, or direct."),
		sieveReads:  r.Counter("core_sieve_reads_total", "Collective window reads issued to storage."),
		sieveWrites: r.Counter("core_sieve_writes_total", "Collective window write-backs issued to storage."),

		exchangeNs: r.Counter("core_exchange_ns_total", "Nanoseconds in AP-IOP data exchange."),
		copyNs:     r.Counter("core_copy_ns_total", "Nanoseconds in pack/unpack and window merge copies."),
		storageNs:  r.Counter("core_storage_ns_total", "Nanoseconds in collective window storage I/O."),

		epochsCommitted: r.Counter("core_epochs_committed_total", "Epoch commit rounds completed."),
		epochRetries:    r.Counter("core_epoch_retries_total", "Epoch seal/commit rounds retried after a server bounce."),
		epochAborts:     r.Counter("core_epoch_aborts_total", "Epochs abandoned after a collective fault."),

		progCompiles: r.Counter("core_program_compiles_total", "Datatype copy programs compiled (memo-cache misses)."),
		progHits:     r.Counter("core_program_cache_hits_total", "Program memo-cache hits."),
	}
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
