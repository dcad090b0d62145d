package core

import (
	"bytes"
	"testing"

	"repro/internal/datatype"
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
	for _, eng := range engines {
		const P = 4
		col := trace.NewCollector(trace.DefaultBufSize)
		world{P: P, trace: col, opts: Options{Engine: eng, collBufSize: 192}}.roundTrip(t, access{view: fig4(P, 40, 16), d: 40 * 16})
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
	const P = 4
	col := trace.NewCollector(trace.DefaultBufSize)
	errs := make([]error, P)
	world{P: P, trace: col, backend: "faulty", checked: true, opts: Options{collBufSize: 128}}.run(t, nil, func(r rank) {
		if err := r.f.SetView(0, datatype.Byte, noncontigTypeP(r.p.Rank(), P, 32, 16)); err != nil {
			panic(err)
		}
		if r.p.Rank() == 0 {
			r.fb.FailWrites(2)
		}
		r.p.Barrier()
		_, errs[r.p.Rank()] = r.f.WriteAtAll(0, 32*16, datatype.Byte, pattern(r.p.Rank(), 32*16))
	})
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
// them.  Fused and staged copies are accounted alike.  So does a sparse
// access below SieveDensity, which the owner mover moves: one storage
// span per vectored batch, and copy time where a declined memtype makes
// it pack.
func TestIndependentSieveAccountsItsPhases(t *testing.T) {
	const blockcount, blocklen, sieveBuf = 512, 8, 1024
	d := int64(blockcount * blocklen)
	elem, err := datatype.Resized(datatype.Double, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, staged := range []bool{false, true} {
		ft := noncontigTypeP(0, 2, blockcount, blocklen)
		if staged {
			ft = declinedType(t, ft) // no program: the window copies stage through a pack buffer
		}
		col := trace.NewCollector(trace.DefaultBufSize)
		var st Stats
		world{P: 1, trace: col, opts: Options{sieveBufSize: sieveBuf}}.run(t, nil, func(r rank) {
			f := r.f
			if err := f.SetView(0, datatype.Byte, ft); err != nil {
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

	sparse := hvecBytes(1024, 8, 1024) // density 1/128
	for _, packed := range []bool{false, true} {
		mt, count := elem, int64(256)
		if packed {
			mt, count = declinedType(t, elem), 1 // no memtype program: the batch goes through a pack buffer
		}
		col := trace.NewCollector(trace.DefaultBufSize)
		var st Stats
		world{P: 1, trace: col, opts: Options{SieveDensity: 0.25}}.run(t, nil, func(r rank) {
			f := r.f
			if err := f.SetView(0, datatype.Byte, sparse); err != nil {
				panic(err)
			}
			buf := pattern(2, (count-1)*mt.Extent()+mt.TrueUB())
			before := f.Stats
			if _, err := f.WriteAt(0, count, mt, buf); err != nil {
				panic(err)
			}
			if _, err := f.ReadAt(0, count, mt, buf); err != nil {
				panic(err)
			}
			st = f.Stats.Sub(before)
		})
		batches := st.VectoredWrites + st.VectoredReads
		if batches == 0 || st.SieveReads+st.SieveWrites != 0 {
			t.Fatalf("packed=%v: %d batches, %d sieve windows: the access did not go direct",
				packed, batches, st.SieveReads+st.SieveWrites)
		}
		if st.StorageNs <= 0 || packed && st.CopyNs <= 0 {
			t.Errorf("packed=%v: StorageNs=%d CopyNs=%d after %d direct batches, want storage (and, packed, copies) accounted",
				packed, st.StorageNs, st.CopyNs, batches)
		}
		var calls int64
		for _, ev := range col.Events() {
			if ev.Phase == trace.PhaseWriteBack || ev.Phase == trace.PhasePreRead {
				calls++
			}
		}
		if calls != batches {
			t.Errorf("packed=%v: %d storage spans for %d direct batches", packed, calls, batches)
		}
	}
}
