package main

// ratio is a/b, and 0 when there is nothing to divide by: a layer the
// workload does not use reports 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ledger derives the (s) and (c) metrics from the traced pass: counter
// deltas over the timed ops of its one round, spans of rank 0's ops.
func ledger(wl *workload, res *runResult, rec *recorder) (map[string]float64, error) {
	firstTimed := int64(2*warmups + 1)
	writes := rec.durations("op.write", 0, firstTimed)
	reads := rec.durations("op.read", 0, firstTimed)
	ops := float64(len(writes) + len(reads))
	wall := sum(writes) + sum(reads) // rank 0's time inside timed ops, the shares' denominator
	userBytes := ops * float64(res.userBytes)
	b, a := &res.before, &res.after

	var copyNs, exchNs, storNs float64
	var windows, overlapped, skipped, sieveWrites, epochRetries float64
	var viewBytes, progHits, progCompiles float64
	var msgs, payload, wire float64
	for r := 0; r < ranks; r++ {
		d := a.core[r].Sub(b.core[r])
		windows += float64(d.SieveReads + d.SieveWrites)
		sieveWrites += float64(d.SieveWrites)
		overlapped += float64(d.WindowsOverlapped)
		skipped += float64(d.PreReadsSkipped)
		epochRetries += float64(d.EpochRetries)
		// Set-up work: totals since Open, not deltas.
		viewBytes += float64(a.core[r].ViewBytesSent)
		progHits += float64(a.core[r].ProgramCacheHits)
		progCompiles += float64(a.core[r].ProgramCompiles)
		msgs += float64(a.mpi[r].Messages - b.mpi[r].Messages)
		payload += float64(a.mpi[r].Bytes - b.mpi[r].Bytes)
		wire += float64(a.mpi[r].WireBytesSent - b.mpi[r].WireBytesSent)
		if r == 0 {
			copyNs, exchNs, storNs = float64(d.CopyNs), float64(d.ExchangeNs), float64(d.StorageNs)
		}
	}
	if !wl.collective {
		// Independent access exports no phase times: storage is the time
		// inside backend calls.  The ranks run at once and each fills the
		// op with its own calls, so their times are averaged.
		storNs = float64(a.busyNs-b.busyNs) / ranks
	}

	// Pipelined window I/O runs beside the exchange and both are counted
	// in full, so the phases can add up to more than the op took; the
	// shares are then of the phase total and nothing is left for other.
	whole := max(wall, copyNs+exchNs+storNs)

	v := map[string]float64{
		"core.setview_ms":      median(rec.durations("core.setview", 0, 0)) / 1e6,
		"core.write_op_p50_ms": quantile(writes, 0.5) / 1e6,
		"core.write_op_p90_ms": quantile(writes, 0.9) / 1e6,
		"core.read_op_p50_ms":  quantile(reads, 0.5) / 1e6,
		"core.read_op_p90_ms":  quantile(reads, 0.9) / 1e6,

		"core.copy_share":     copyNs / whole,
		"core.exchange_share": exchNs / whole,
		"core.storage_share":  storNs / whole,

		"core.view_bytes_sent":      viewBytes,
		"core.prog_cache_hit_ratio": ratio(progHits, progHits+progCompiles),
		"core.epoch_retries":        epochRetries,

		"mpi.msgs_per_op":                       msgs / ops,
		"mpi.payload_bytes_per_user_byte":       payload / userBytes,
		"mpi.recv_wait_share":                   float64(a.mpi[0].RecvWaitNs-b.mpi[0].RecvWaitNs) / wall,
		"transport.wire_bytes_per_payload_byte": ratio(wire, payload),

		"storage.calls_per_op": float64(a.storage.Reads+a.storage.Writes-b.storage.Reads-b.storage.Writes) / ops,
		"storage.bytes_per_user_byte": float64(a.storage.BytesRead+a.storage.BytesWritten-
			b.storage.BytesRead-b.storage.BytesWritten) / userBytes,

		"ioserver.round_trips_per_op":   float64(a.rounds-b.rounds) / ops,
		"ioserver.requests_per_op":      float64(a.server.Requests-b.server.Requests) / ops,
		"ioserver.staged_writes_per_op": float64(a.server.StagedWrites-b.server.StagedWrites) / ops,
		"ioserver.epochs_per_op":        float64(a.server.EpochsCommitted-b.server.EpochsCommitted) / ops,
		"ioserver.fsyncs_per_op":        float64(a.server.JournalFsyncs-b.server.JournalFsyncs) / ops,
		"ioserver.view_cache_hit_ratio": ratio(float64(a.server.ViewCacheHits), float64(a.server.ViewCacheHits+a.server.ViewRegistrations)),
		"ioserver.stale_handles":        float64(a.server.StaleHandles),

		"pool.mallocs_per_op":  float64(a.mallocs-b.mallocs) / ops,
		"pool.alloc_kb_per_op": float64(a.allocB-b.allocB) / 1024 / ops,
		"pool.miss_ratio":      ratio(float64(a.pool.Misses-b.pool.Misses), float64(a.pool.Gets-b.pool.Gets)),
	}
	// The four shares sum to 1 by construction; other is the residue.
	v["core.other_share"] = max(0, 1-v["core.copy_share"]-v["core.exchange_share"]-v["core.storage_share"])
	if wl.collective {
		v["core.windows_per_op"] = windows / ops
		v["core.windows_overlapped_ratio"] = ratio(overlapped, windows)
		v["core.prereads_skipped_ratio"] = ratio(skipped, sieveWrites)
		v["core.sieve_rw_per_op"] = 0
	} else {
		v["core.windows_per_op"] = 0
		v["core.windows_overlapped_ratio"] = 0
		v["core.prereads_skipped_ratio"] = 0
		v["core.sieve_rw_per_op"] = windows / ops
	}
	shares, err := cpuShares(res.profile.Bytes())
	if err != nil {
		return nil, err
	}
	for _, l := range cpuLayers {
		v["cpu."+l+"_share"] = shares[l]
	}
	return v, nil
}
