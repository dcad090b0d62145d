package core

import (
	"bytes"
	"testing"

	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/storage"
	"repro/internal/trace"
)

// TestTracedPipelinedCollective runs a 4-rank pipelined collective
// write+read with tracing on and checks the recorded timeline has the
// shape the Chrome exporter and the summary rely on: a top-level span
// per access, per-window spans, exchange and copy spans, and the
// pipeline's background pre-reads and write-backs on the I/O track.
// The background recording also makes this a -race test of the tracer
// under the real concurrent workload.
func TestTracedPipelinedCollective(t *testing.T) {
	for _, eng := range []Engine{Listless, ListBased} {
		const P = 4
		col := trace.NewCollector(trace.DefaultBufSize)
		sh := NewShared(storage.NewMem())
		opts := Options{Engine: eng, CollBufSize: 192, Trace: col}
		const blockcount, blocklen = 40, 16
		d := int64(blockcount * blocklen)
		_, err := mpi.RunWithOptions(P, mpi.RunOptions{Trace: col}, func(p *mpi.Proc) {
			f, err := Open(p, sh, opts)
			if err != nil {
				panic(err)
			}
			defer f.Close()
			if err := f.SetView(0, datatype.Byte, noncontigTypeP(p.Rank(), P, blockcount, blocklen)); err != nil {
				panic(err)
			}
			data := pattern(p.Rank(), d)
			if _, err := f.WriteAtAll(0, d, datatype.Byte, data); err != nil {
				panic(err)
			}
			got := make([]byte, d)
			if _, err := f.ReadAtAll(0, d, datatype.Byte, got); err != nil {
				panic(err)
			}
			if !bytes.Equal(got, data) {
				panic("round trip mismatch")
			}
		})
		if err != nil {
			t.Fatalf("engine %v: %v", eng, err)
		}

		ranks := map[int]bool{}
		perPhase := map[trace.Phase]int{}
		ioTrack := map[trace.Phase]int{}
		for _, ev := range col.Events() {
			ranks[ev.Rank] = true
			perPhase[ev.Phase]++
			if ev.Track == trace.TrackIO {
				ioTrack[ev.Phase]++
			}
		}
		for r := 0; r < P; r++ {
			if !ranks[r] {
				t.Errorf("engine %v: no events recorded for rank %d", eng, r)
			}
		}
		for _, ph := range []trace.Phase{
			trace.PhaseCollWrite, trace.PhaseCollRead, trace.PhaseCollPlan,
			trace.PhaseAPSetup, trace.PhaseIOPSetup, trace.PhaseWindow,
			trace.PhasePipelineWait, trace.PhaseExchange, trace.PhaseCopy,
			trace.PhasePreRead, trace.PhaseWriteBack,
			trace.PhaseMPIRecv, trace.PhaseMPISend, trace.PhaseMPIBarrier,
		} {
			if perPhase[ph] == 0 {
				t.Errorf("engine %v: no %s events recorded", eng, ph)
			}
		}
		// The pipelined loop does its storage I/O on background
		// goroutines; those spans must land on the I/O track so they
		// don't break main-track span nesting.
		if ioTrack[trace.PhasePreRead] == 0 || ioTrack[trace.PhaseWriteBack] == 0 {
			t.Errorf("engine %v: background I/O spans not on TrackIO: %v", eng, ioTrack)
		}
		if s := col.Summary(); s == "" {
			t.Errorf("engine %v: empty summary", eng)
		}
		var buf bytes.Buffer
		if err := col.WriteChrome(&buf); err != nil {
			t.Errorf("engine %v: chrome export: %v", eng, err)
		}
	}
}

// TestTracedCollectiveFaultInstant: an agreed collective failure must
// leave a coll.fault instant on every rank's timeline.
func TestTracedCollectiveFaultInstant(t *testing.T) {
	col := trace.NewCollector(trace.DefaultBufSize)
	fb := storage.NewFaulty(storage.NewMem())
	sh := NewShared(fb)
	const P = 4
	errs := make([]error, P)
	_, err := mpi.RunWithOptions(P, mpi.RunOptions{StallTimeout: watchdogTimeout, Trace: col}, func(p *mpi.Proc) {
		f, err := Open(p, sh, Options{CollBufSize: 128, Trace: col})
		if err != nil {
			panic(err)
		}
		if err := f.SetView(0, datatype.Byte, noncontigTypeP(p.Rank(), P, 32, 16)); err != nil {
			panic(err)
		}
		if p.Rank() == 0 {
			fb.FailWrites(2)
		}
		p.Barrier()
		d := int64(32 * 16)
		_, errs[p.Rank()] = f.WriteAtAll(0, d, datatype.Byte, pattern(p.Rank(), d))
	})
	if err != nil {
		t.Fatal(err)
	}
	faults := map[int]bool{}
	for _, ev := range col.Events() {
		if ev.Phase == trace.PhaseFault {
			faults[ev.Rank] = true
			if ev.Detail == "" {
				t.Error("fault instant has no detail")
			}
		}
	}
	for r := 0; r < P; r++ {
		if errs[r] == nil {
			t.Fatalf("rank %d saw no error", r)
		}
		if !faults[r] {
			t.Errorf("rank %d recorded no coll.fault instant", r)
		}
	}
}

// TestIndependentSieveAccountsItsPhases: an independent sieving access
// fills the same phase counters as a collective — backend calls as
// StorageNs, window copies as CopyNs — and records one copy span per
// sieve window, so that its time is not "other" in any ledger built on
// them.  Fused and staged copies are accounted alike.
func TestIndependentSieveAccountsItsPhases(t *testing.T) {
	const blockcount, blocklen, sieveBuf = 512, 8, 1024
	d := int64(blockcount * blocklen)
	elem, err := datatype.Resized(datatype.Double, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, staged := range []bool{false, true} {
		col := trace.NewCollector(trace.DefaultBufSize)
		var st Stats
		_, err := mpi.Run(1, func(p *mpi.Proc) {
			f, err := Open(p, NewShared(storage.NewMem()),
				Options{SieveBufSize: sieveBuf, DisableProgram: staged, Trace: col})
			if err != nil {
				panic(err)
			}
			defer f.Close()
			if err := f.SetView(0, datatype.Byte, noncontigTypeP(0, 2, blockcount, blocklen)); err != nil {
				panic(err)
			}
			buf := pattern(1, 2*d)
			before := f.Stats
			if _, err := f.WriteAt(0, d/8, elem, buf); err != nil {
				panic(err)
			}
			if _, err := f.ReadAt(0, d/8, elem, buf); err != nil {
				panic(err)
			}
			st = f.Stats.Sub(before)
		})
		if err != nil {
			t.Fatal(err)
		}
		windows := st.SieveReads + st.SieveWrites
		if windows < 2*(2*d/sieveBuf)-2 {
			t.Fatalf("staged=%v: only %d sieve windows: the access did not sieve", staged, windows)
		}
		if st.CopyNs <= 0 || st.StorageNs <= 0 {
			t.Errorf("staged=%v: CopyNs=%d StorageNs=%d after %d sieve windows, want both accounted",
				staged, st.CopyNs, st.StorageNs, windows)
		}
		var copies int64
		for _, ev := range col.Events() {
			if ev.Phase == trace.PhaseCopy {
				copies++
			}
		}
		if copies != windows {
			t.Errorf("staged=%v: %d copy spans for %d sieve windows", staged, copies, windows)
		}
	}
}
