package core

import (
	"testing"

	"repro/internal/datatype"
	"repro/internal/storage"
)

// Tests for the sieving-vs-direct-access decision (Options.SieveDensity,
// the paper's §5 outlook item).

// sparseView selects 8 bytes out of every 1024: density 1/128.
func sparseView(int) (int64, *datatype.Type) { return 0, hvecBytes(16, 8, 1024) }

func TestDirectPathTriggersOnSparseAccess(t *testing.T) {
	for _, eng := range engines {
		res := world{P: 1, opts: Options{Engine: eng, SieveDensity: 0.5}}.roundTrip(t, access{view: sparseView, d: 128, indep: true})
		// No read-modify-write: the direct write path must not read.
		if st := res.stats; st.DirectWrites == 0 || st.SieveWrites != 0 || st.DirectReads == 0 || st.SieveReads != 0 || res.writeReads != 0 {
			t.Errorf("%v: the sparse accesses did not take the direct path, or the write read %d times: %+v", eng, res.writeReads, st)
		}
	}

	// The trade at 1/128 density, in storage bytes per user byte:
	// 64-byte blocks at a 64·128-byte pitch.  The direct path
	// (SieveDensity 1) moves exactly the user bytes each way; the sieve
	// (SieveDensity 0) reads every window the access spans, at least 64×
	// them, for the write's read-modify-write and for the read alike.
	// The file exists before the write, so that the pre-read has bytes
	// to read.
	dt := hvecBytes(4096, 64, 64*128)
	d := dt.Size()
	for _, density := range []float64{1, 0} {
		var wr, rd storage.AccessStats
		world{P: 1, opts: Options{SieveDensity: density}}.run(t, make([]byte, dt.Extent()), func(r rank) {
			if err := r.f.SetView(0, datatype.Byte, dt); err != nil {
				panic(err)
			}
			s0 := r.inst.Stats()
			if _, err := r.f.WriteAt(0, d, datatype.Byte, pattern(2, d)); err != nil {
				panic(err)
			}
			s1 := r.inst.Stats()
			if _, err := r.f.ReadAt(0, d, datatype.Byte, make([]byte, d)); err != nil {
				panic(err)
			}
			s2 := r.inst.Stats()
			wr = storage.AccessStats{BytesRead: s1.BytesRead - s0.BytesRead, BytesWritten: s1.BytesWritten - s0.BytesWritten}
			rd = storage.AccessStats{BytesRead: s2.BytesRead - s1.BytesRead, BytesWritten: s2.BytesWritten - s1.BytesWritten}
		})
		if density == 1 {
			if wr.BytesRead != 0 || wr.BytesWritten != d || rd.BytesRead != d || rd.BytesWritten != 0 {
				t.Errorf("direct at 1/128: write read %d wrote %d, read read %d wrote %d; want 0, %d, %d, 0",
					wr.BytesRead, wr.BytesWritten, rd.BytesRead, rd.BytesWritten, d, d)
			}
		} else if wr.BytesRead < 64*d || rd.BytesRead < 64*d {
			t.Errorf("sieve at 1/128: write read %d, read read %d storage bytes; want at least 64×%d each",
				wr.BytesRead, rd.BytesRead, d)
		}
	}
}

// TestDirectVsSievingIdenticalFiles: the heuristic does not change file
// contents: density thresholds that force each path, across engines,
// with a non-contiguous memtype, all leave the oracle's bytes.
func TestDirectVsSievingIdenticalFiles(t *testing.T) {
	memt := hvecBytes(16, 8, 24)
	for _, density := range []float64{0, 0.9} {
		for _, eng := range engines {
			world{P: 2, opts: Options{Engine: eng, SieveDensity: density, packBufSize: 32}}.roundTrip(t, access{view: fig4(2, 16, 8), d: 16 * 8,
				mem: func(int) *datatype.Type { return memt }, indep: true})
		}
	}
}

// TestDenseAccessStillSieves: a density above the threshold keeps the
// sieving path.
func TestDenseAccessStillSieves(t *testing.T) {
	half := func(int) (int64, *datatype.Type) { return 0, hvecBytes(32, 8, 16) } // 8 of every 16 bytes
	st := world{P: 1, opts: Options{Engine: Listless, SieveDensity: 0.25}}.roundTrip(t, access{view: half, d: 256, indep: true}).stats
	if st.SieveWrites == 0 || st.DirectWrites != 0 {
		t.Errorf("dense access took the direct path: %+v", st)
	}
}

// TestDirectPathMergesAbuttingStretches: a fileview whose last run in each
// instance abuts the next instance's first run (blocks at 0 and at
// extent-8) is one stretch per instance boundary, which neither the
// compiled program nor the ol-list joins.  The owner mover lists each
// stretch as one segment, on both engines, and the file and the read-back
// match the flat oracle.
func TestDirectPathMergesAbuttingStretches(t *testing.T) {
	const ext, inst = 1024, 64
	ft := mustType(datatype.Resized(mustType(datatype.Hindexed([]int64{8, 8}, []int64{0, ext - 8}, datatype.Byte)), 0, ext))
	d := int64(inst * 16)
	var stretches, end int64
	places(0, ft, 0, d, func(off, _, n int64) {
		if off != end || stretches == 0 {
			stretches++
		}
		end = off + n
	})
	if stretches != inst+1 {
		t.Fatalf("the view has %d stretches, want %d", stretches, inst+1)
	}
	for _, eng := range engines {
		st := world{P: 1, opts: Options{Engine: eng, SieveDensity: 0.25}}.roundTrip(t, access{view: func(int) (int64, *datatype.Type) { return 0, ft },
			d: d, indep: true}).stats
		if st.DirectWrites != stretches || st.DirectReads != stretches || st.VectoredWrites != 1 || st.VectoredReads != 1 {
			t.Errorf("%v: %d/%d segments in %d/%d batches written/read, want %d in one batch each",
				eng, st.DirectWrites, st.DirectReads, st.VectoredWrites, st.VectoredReads, stretches)
		}
	}
}
