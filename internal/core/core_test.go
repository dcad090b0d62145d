package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/datatype"
	"repro/internal/flatten"
	"repro/internal/storage"
)

// byteViews is each rank's plain byte view, displaced by rank*stride.
func byteViews(stride int64) viewFn {
	return func(rank int) (int64, *datatype.Type) { return int64(rank) * stride, datatype.Byte }
}

// TestIndependentContigContig: c-c, contiguous memory into each rank's
// byte view, one storage call each way.
func TestIndependentContigContig(t *testing.T) {
	independentContigFile(t, 1000, datatype.Byte, 0)
}

// TestIndependentNcMemContigFile: nc-c, a strided memtype into a
// contiguous file, through a pack buffer smaller than the access, one
// storage call per pack-buffer chunk each way.
func TestIndependentNcMemContigFile(t *testing.T) {
	independentContigFile(t, 400, mustType(datatype.Vector(50, 1, 3, datatype.Double)), 64) // 50 doubles every 3
}

// independentContigFile writes and reads back d data bytes per rank, from
// memory of mem through each rank's byte view, independently at P = 2 —
// for each engine, on Mem and on the in-process tier — and holds every
// run to the oracle and to the owner mover's contiguous face in counted
// work: the backend, through storage.Instrumented, sees one call per
// pack-buffer chunk of pack bytes, or one from contiguous memory, each
// an offset list of one segment; and the list-based engine builds the
// ol-lists it built for these accesses before they had that face: the
// byte view's at Open, which SetView finds cached, and the memtype's, one
// per access.
func independentContigFile(t *testing.T, d int64, mem *datatype.Type, pack int) {
	const P = 2
	calls, memTuples := int64(1), int64(0)
	if !mem.ContiguousTiled() {
		calls, memTuples = (d+int64(pack)-1)/int64(pack), int64(len(flatten.Flatten(mem)))
	}
	for _, backend := range []string{"mem", "tier"} {
		for _, eng := range engines {
			label := fmt.Sprintf("%s/%v", backend, eng)
			var inst *storage.Instrumented
			w := world{P: P, backend: backend, checked: true, opts: Options{Engine: eng, packBufSize: pack}, wrap: func(b storage.Backend) storage.Backend {
				inst = storage.NewInstrumented(b)
				return inst
			}}
			res := w.roundTrip(t, access{view: byteViews(d), d: d, mem: func(int) *datatype.Type { return mem }, indep: true})
			if st := inst.Stats(); st.Writes != P*calls || st.Reads != P*calls {
				t.Errorf("%s: %d storage writes and %d reads, want %d each", label, st.Writes, st.Reads, P*calls)
			}
			s := res.stats
			if s.VectoredWrites != P*calls || s.DirectWrites != P*calls || s.VectoredReads != P*calls || s.DirectReads != P*calls {
				t.Errorf("%s: %d segments in %d writes, %d in %d reads; want %d one-segment calls each way",
					label, s.DirectWrites, s.VectoredWrites, s.DirectReads, s.VectoredReads, P*calls)
			}
			if want := P * (1 + 2*memTuples); eng == ListBased && s.ListTuples != want {
				t.Errorf("%s: %d ol-list tuples built, want %d", label, s.ListTuples, want)
			}
		}
	}
}

// TestIndependentSievingWriteRead: c-nc and nc-nc with a small sieve
// buffer, which forces many windows; the ranks' views interleave, so at
// P > 1 their read-modify-writes share windows.
func TestIndependentSievingWriteRead(t *testing.T) {
	const blockcount, blocklen = 37, 16
	memNCType := hvecBytes(blockcount, blocklen, blocklen+8)
	for _, P := range []int{1, 2, 4} {
		for _, memNC := range []bool{false, true} {
			t.Run(fmt.Sprintf("P=%d,memNC=%v", P, memNC), func(t *testing.T) {
				a := access{view: fig4(P, blockcount, blocklen), d: blockcount * blocklen, indep: true}
				if memNC {
					a.mem = func(int) *datatype.Type { return memNCType }
				}
				for _, eng := range engines {
					world{P: P, opts: Options{Engine: eng, sieveBufSize: 96, packBufSize: 80}}.roundTrip(t, a)
				}
			})
		}
	}
}

// TestIndependentOffsetInsideFiletype: accesses that start mid-filetype,
// a read and a write of each.
func TestIndependentOffsetInsideFiletype(t *testing.T) {
	for _, eng := range engines {
		for _, c := range []struct{ off, d int64 }{{12, 24}, {35, 10}} {
			world{P: 1, opts: Options{Engine: eng, sieveBufSize: 64}}.roundTrip(t, access{view: fig4(2, 10, 8), off: c.off, d: c.d, indep: true})
		}
	}
}

// TestIndependentEtypeGranularity: with etype double, offsets count
// doubles, not bytes.
func TestIndependentEtypeGranularity(t *testing.T) {
	view := func(int) (int64, *datatype.Type) { return 0, mustType(datatype.Vector(8, 1, 2, datatype.Double)) }
	for _, eng := range engines {
		world{P: 1, opts: Options{Engine: eng}}.roundTrip(t, access{view: view, etype: datatype.Double, off: 2, d: 32, indep: true})
	}
}

func TestIndependentNonMultipleEtypeRejected(t *testing.T) {
	world{P: 1}.run(t, nil, func(r rank) {
		if err := r.f.SetView(0, datatype.Double, datatype.Double); err != nil {
			panic(err)
		}
		if _, err := r.f.WriteAt(0, 12, datatype.Byte, make([]byte, 12)); err == nil {
			panic("12 bytes with double etype must be rejected")
		}
	})
}

func TestAccessValidation(t *testing.T) {
	world{P: 1}.run(t, nil, func(r rank) {
		buf := make([]byte, 8)
		for what, err := range map[string]error{
			"negative offset":  second(r.f.WriteAt(-1, 8, datatype.Byte, buf)),
			"nil memtype":      second(r.f.WriteAt(0, 8, nil, buf)),
			"negative count":   second(r.f.WriteAt(0, -2, datatype.Byte, buf)),
			"oversized access": second(r.f.WriteAt(0, 100, datatype.Byte, buf)),
			"negative disp":    r.f.SetView(-5, datatype.Byte, datatype.Byte),
		} {
			if err == nil {
				panic(what + " accepted")
			}
		}
		if n, err := r.f.WriteAt(0, 0, datatype.Byte, buf); n != 0 || err != nil {
			panic("zero-count write should be a no-op")
		}
	})
}

func second(_ int64, err error) error { return err }

// TestCollectiveWriteReadPartitioned is the headline scenario: P ranks
// write the whole file through interleaved fileviews with one collective
// call each.  The subtests keep the "IOP=0" of the days when fewer
// ranks than all could be I/O processes: 0 meant every rank, the one
// schedule there is.
func TestCollectiveWriteReadPartitioned(t *testing.T) {
	for _, P := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("P=%d,IOP=0", P), func(t *testing.T) {
			for _, eng := range engines {
				world{P: P, opts: Options{Engine: eng, collBufSize: 256}}.roundTrip(t, access{view: fig4(P, 64, 8), d: 64 * 8})
			}
		})
	}
}

// TestCollectiveFullCoverageSkipsPreRead: the views tile every window, so
// a collective write reads nothing.
func TestCollectiveFullCoverageSkipsPreRead(t *testing.T) {
	const P, d = 4, 32 * 16
	for _, eng := range engines {
		res := world{P: P, opts: Options{Engine: eng, collBufSize: 512}, backend: "mem"}.run(t, nil, func(r rank) {
			if err := r.f.SetView(0, datatype.Byte, noncontigTypeP(r.p.Rank(), P, 32, 16)); err != nil {
				panic(err)
			}
			if _, err := r.f.WriteAtAll(0, d, datatype.Byte, pattern(r.p.Rank(), d)); err != nil {
				panic(err)
			}
		})
		if res.perRank[0].PreReadsSkipped == 0 || res.inst.Reads != 0 {
			t.Errorf("%v: %d pre-reads skipped, %d backend reads during a fully covering collective write", eng, res.perRank[0].PreReadsSkipped, res.inst.Reads)
		}
	}
}

// TestCollectivePartialCoverageReadsFirst: only half the ranks write, so
// no window is covered: the pre-reads keep what the file held in the gaps.
func TestCollectivePartialCoverageReadsFirst(t *testing.T) {
	for _, eng := range engines {
		world{P: 4, opts: Options{Engine: eng, collBufSize: 512}}.roundTrip(t, access{view: fig4(4, 32, 16),
			dOf: func(rank int) int64 { return int64(1-rank%2) * 32 * 16 }})
	}
}

// TestCollectiveDifferingDisplacements: each rank sets a different
// displacement, so the views are not proved disjoint and the listless
// engine pre-reads.
func TestCollectiveDifferingDisplacements(t *testing.T) {
	const P = 3
	ft := mustType(datatype.Resized(hvecBytes(16, 8, P*8), 0, 16*P*8))
	for _, eng := range engines {
		world{P: P, opts: Options{Engine: eng, collBufSize: 128}}.roundTrip(t, access{d: 16 * 8,
			view: func(rank int) (int64, *datatype.Type) { return int64(rank) * 8, ft }})
	}
}

// TestCollectiveNcMemtype: nc-nc, a strided memtype and strided fileviews.
func TestCollectiveNcMemtype(t *testing.T) {
	mem := hvecBytes(32, 16, 24)
	for _, eng := range engines {
		world{P: 4, opts: Options{Engine: eng, collBufSize: 300}}.roundTrip(t, access{view: fig4(4, 32, 16), d: 32 * 16,
			mem: func(int) *datatype.Type { return mem }})
	}
}

// TestCollectiveSomeRanksIdle: ranks with count 0 still take part.
func TestCollectiveSomeRanksIdle(t *testing.T) {
	for _, eng := range engines {
		world{P: 4, opts: Options{Engine: eng}}.roundTrip(t, access{view: fig4(4, 8, 8),
			dOf: func(rank int) int64 {
				if rank == 1 {
					return 64
				}
				return 0
			}})
	}
}

func TestCollectiveAllIdle(t *testing.T) {
	for _, eng := range engines {
		world{P: 3, opts: Options{Engine: eng}}.roundTrip(t, access{view: byteViews(0)})
	}
}

// TestCollectiveMultipleRounds: one collective write per time step at
// the step's explicit offset (the BTIO pattern), then every step read
// back.
func TestCollectiveMultipleRounds(t *testing.T) {
	const P, steps, d = 4, 5, 16 * 32
	view := fig4(P, 16, 32)
	data := make([][]byte, P)
	for r := range data {
		for s := 0; s < steps; s++ {
			data[r] = append(data[r], pattern(r+s*17, d)...)
		}
	}
	o := flat(view, nil, 0, data)
	for _, eng := range engines {
		res := world{P: P, opts: Options{Engine: eng, collBufSize: 1024}}.run(t, o.file, func(r rank) {
			_, ft := view(r.p.Rank())
			if err := r.f.SetView(0, datatype.Byte, ft); err != nil {
				panic(err)
			}
			mine := data[r.p.Rank()]
			for s := int64(0); s < steps; s++ {
				if _, err := r.f.WriteAtAll(s*d, d, datatype.Byte, mine[s*d:(s+1)*d]); err != nil {
					panic(err)
				}
			}
			for s := int64(0); s < steps; s++ {
				got := make([]byte, d)
				if _, err := r.f.ReadAtAll(s*d, d, datatype.Byte, got); err != nil || !bytes.Equal(got, mine[s*d:(s+1)*d]) {
					panic(fmt.Sprintf("rank %d step %d: %v, or the read differs", r.p.Rank(), s, err))
				}
			}
		})
		if !bytes.Equal(res.file, o.file) {
			t.Errorf("%v: the file differs from the oracle", eng)
		}
	}
}

// TestStatsReflectEngineDifferences: the list-based engine builds and
// sends ol-lists, the listless one exchanges views, and fewer bytes of
// them.
func TestStatsReflectEngineDifferences(t *testing.T) {
	stats := map[Engine]Stats{}
	for _, eng := range engines {
		stats[eng] = world{P: 4, opts: Options{Engine: eng}}.roundTrip(t, access{view: fig4(4, 256, 8), d: 256 * 8}).perRank[0]
	}
	lb, ll := stats[ListBased], stats[Listless]
	if lb.ListTuples == 0 || lb.ListBytesSent == 0 {
		t.Errorf("list-based stats show no list work: %+v", lb)
	}
	if ll.ListTuples != 0 || ll.ListBytesSent != 0 || ll.ViewBytesSent == 0 {
		t.Errorf("listless engine built or sent ol-lists, or exchanged no views: %+v", ll)
	}
	if ll.ViewBytesSent >= lb.ListBytesSent {
		t.Errorf("view exchange (%d B) not smaller than list exchange (%d B)", ll.ViewBytesSent, lb.ListBytesSent)
	}
}

// TestViewCachePersistsAcrossAccesses: the views are exchanged once, at
// SetView, so ViewBytesSent does not grow with the collective accesses.
func TestViewCachePersistsAcrossAccesses(t *testing.T) {
	var first, after int64
	world{P: 2}.run(t, nil, func(r rank) {
		if err := r.f.SetView(0, datatype.Byte, noncontigTypeP(r.p.Rank(), 2, 8, 8)); err != nil {
			panic(err)
		}
		for i := 0; i < 4; i++ {
			if _, err := r.f.WriteAtAll(0, 64, datatype.Byte, pattern(r.p.Rank(), 64)); err != nil {
				panic(err)
			}
			if r.p.Rank() == 0 && i == 0 {
				first = r.f.Stats.ViewBytesSent
			}
		}
		if r.p.Rank() == 0 {
			after = r.f.Stats.ViewBytesSent
		}
	})
	if first == 0 || after != first {
		t.Errorf("view bytes %d after the first access, %d after three more; want a nonzero, unchanged count", first, after)
	}
}

// TestSizeZeroViewOnTier: a legal filetype with no data, which is not
// contiguous-tiled, is registered on the tier by SetView, and count-0
// collective and independent accesses through it move nothing and fail
// nothing, on either engine.
func TestSizeZeroViewOnTier(t *testing.T) {
	empty := mustType(datatype.Hindexed([]int64{0}, []int64{8}, datatype.Byte))
	for _, eng := range engines {
		res := world{P: 2, backend: "tier", checked: true, opts: Options{Engine: eng}}.run(t, nil, func(r rank) {
			if err := r.f.SetView(0, datatype.Byte, empty); err != nil {
				panic(err)
			}
			// In one order on every rank: two of them are collectives.
			for i, op := range []func(int64, int64, *datatype.Type, []byte) (int64, error){r.f.WriteAtAll, r.f.ReadAtAll, r.f.WriteAt, r.f.ReadAt} {
				if n, err := op(0, 0, datatype.Byte, nil); n != 0 || err != nil {
					panic(fmt.Sprintf("rank %d: count-0 access %d moved %d bytes (%v)", r.p.Rank(), i, n, err))
				}
			}
		})
		if res.stats.ViewRegistrations != 2 || len(res.file) != 0 {
			t.Errorf("%v: %d view registrations and a %d-byte file, want 2 and none", eng, res.stats.ViewRegistrations, len(res.file))
		}
	}
}
