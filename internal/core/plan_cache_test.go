package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/datatype"
	"repro/internal/fotf"
	"repro/internal/testutil"
)

// The fused-copy plan cache (plan_cache.go): a plan replaces the lockstep
// only where it moves the bytes the lockstep would.  The tests run
// repeated collectives whose IOPs move irregular lent shares — the
// geometry plans are kept for — and change the memtype and the view
// between them, so that a plan kept past its key would move bytes where
// the old geometry put them.

// irrViews are the P fileviews of an irr-like file: blocks of seeded
// lengths (8 to 248 bytes, multiples of 8) dealt to the P ranks in turn,
// n per rank, so each rank's data size is its own.
func irrViews(P, n int, seed int64) func(int) (int64, *datatype.Type) {
	r := rand.New(rand.NewSource(seed))
	lens := make([]int64, P*n)
	for i := range lens {
		lens[i] = 8 + 8*r.Int63n(31)
	}
	var end int64
	for _, l := range lens {
		end += l
	}
	fts := make([]*datatype.Type, P)
	for rank := range fts {
		var bl, displs []int64
		var off int64
		for i, l := range lens {
			if i%P == rank {
				bl, displs = append(bl, l), append(displs, off)
			}
			off += l
		}
		fts[rank] = mustType(datatype.Resized(mustType(datatype.Hindexed(bl, displs, datatype.Byte)), 0, end))
	}
	return func(rank int) (int64, *datatype.Type) { return 0, fts[rank] }
}

// irrMem is a memtype of the block lengths of view, shuffled by seed, each
// after a seeded gap: the same data size, an unrelated layout.
func irrMem(view *datatype.Type, seed int64) *datatype.Type {
	r := rand.New(rand.NewSource(seed))
	var lens []int64
	view.Walk(func(_, length int64) { lens = append(lens, length) })
	r.Shuffle(len(lens), func(i, j int) { lens[i], lens[j] = lens[j], lens[i] })
	displs := make([]int64, len(lens))
	var off int64
	for i, l := range lens {
		off += 8 + 8*r.Int63n(31)
		displs[i] = off
		off += l
	}
	return mustType(datatype.Hindexed(lens, displs, datatype.Byte))
}

// planPhase is one stretch of identical collectives: the view and the
// memtypes every rank uses for them.
type planPhase struct {
	name    string
	view    func(int) (int64, *datatype.Type)
	setView bool // the phase begins with SetView (the first one always does)
	mem     func(rank int) *datatype.Type
}

// TestFusedPlansFollowTheirKeys runs, at P = 2, 3 and 4, three phases of
// four identical collective writes and reads each: irregular views and
// memtypes; the same views, with no SetView, and every rank's memtype
// reshuffled (same size, so every key differs from the last phase's in
// the memtype program only); and new views through SetView with the
// memtypes of the first phase.  Every write must leave the flat oracle's file and every read
// fill the oracle's bytes, with a buffer's holes untouched; from the third
// collective of a phase on the IOPs replay kept plans, which the test
// checks is so.
func TestFusedPlansFollowTheirKeys(t *testing.T) {
	for _, P := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("P=%d", P), func(t *testing.T) {
			defer testutil.LeakCheck(t)()
			const n = 150 // blocks per rank: about 19 KiB of data each
			views := irrViews(P, n, 1)
			// Same block lengths per rank in a different file order: the
			// sizes of views and of memtypes still agree.
			moved := func(rank int) (int64, *datatype.Type) {
				_, ft := views(rank)
				var lens, displs []int64
				var off int64
				ft.Walk(func(_, length int64) {
					lens, displs = append(lens, length), append(displs, off)
					off += length + 8
				})
				return int64(rank) * 8, mustType(datatype.Hindexed(lens, displs, datatype.Byte))
			}
			mems := func(seed int64) func(int) *datatype.Type {
				m := make([]*datatype.Type, P)
				for rank := range m {
					_, ft := views(rank)
					m[rank] = irrMem(ft, seed*10+int64(rank))
				}
				return func(rank int) *datatype.Type { return m[rank] }
			}
			phases := []planPhase{
				{"irregular", views, true, mems(1)},
				{"memtype-reshuffled", views, false, mems(2)},
				{"view-changed", moved, true, mems(1)},
			}
			runPlanPhases(t, P, phases)
		})
	}
}

func runPlanPhases(t *testing.T, P int, phases []planPhase) {
	t.Helper()
	const rounds = 4
	world{P: P, checked: true, opts: Options{collBufSize: 4096}}.run(t, nil, func(r rank) {
		rk := r.p.Rank()
		for ph, phase := range phases {
			if ph == 0 || phase.setView {
				disp, ft := phase.view(rk)
				if err := r.f.SetView(disp, datatype.Byte, ft); err != nil {
					panic(err)
				}
			}
			for round := 0; round < rounds; round++ {
				data := make([][]byte, P)
				for k := range data {
					data[k] = pattern(100*ph+10*round+k, phase.mem(k).Size())
				}
				o := flat(phase.view, phase.mem, 0, data)
				if rk == 0 {
					if err := r.f.sh.b.Truncate(0); err != nil {
						panic(err)
					}
					if _, err := r.f.sh.b.WriteAt(bytes.Repeat([]byte{background}, len(o.file)), 0); err != nil {
						panic(err)
					}
				}
				r.p.Barrier()
				if _, err := r.f.WriteAtAll(0, 1, phase.mem(rk), o.bufs[rk]); err != nil {
					panic(err)
				}
				r.p.Barrier()
				if rk == 0 && !bytes.Equal(flattenBackend(t, r.f.sh.b), o.file) {
					panic(fmt.Sprintf("%s, write %d: the file differs from the oracle", phase.name, round))
				}
				r.p.Barrier()
				got := bytes.Repeat([]byte{0xEE}, len(o.bufs[rk]))
				if _, err := r.f.ReadAtAll(0, 1, phase.mem(rk), got); err != nil || !bytes.Equal(got, o.reads[rk]) {
					panic(fmt.Sprintf("%s, read %d, rank %d: %v, or the buffer differs from the oracle's", phase.name, round, rk, err))
				}
				if kept := keptPlans(r.f); round >= 1 && kept == 0 {
					panic(fmt.Sprintf("%s, round %d, rank %d: the IOP keeps no plan", phase.name, round, rk))
				}
			}
		}
	})
}

// keptPlans counts the plans f's engine holds.
func keptPlans(f *File) int {
	var kept int
	for _, s := range f.eng.(*listlessEngine).plans.slots {
		if s.plan != nil {
			kept++
		}
	}
	return kept
}

// TestFusedPlansAllocateNothingSteady: the plans of a repeated collective
// are built in its second run, and from the third on keeping and
// replaying them allocates nothing.  Two handles of one rank, whose
// irregular views span 4 and 16 windows, each run a write and a read
// until their plans are built; from then on the collectives allocate the
// same per op whatever their window count — no allocation per window —
// and every plan is the one built before.
func TestFusedPlansAllocateNothingSteady(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const win = 4096
	var perOp [2][2]float64                 // [small, large][write, read]
	for i, blocks := range []int{64, 256} { // about 8 and 32 KiB of data over 2 ranks' worth of file
		views := irrViews(2, blocks, 5)
		world{P: 1, opts: Options{collBufSize: win}}.run(t, nil, func(r rank) {
			disp, ft := views(0)
			if err := r.f.SetView(disp, datatype.Byte, ft); err != nil {
				panic(err)
			}
			mt := irrMem(ft, 5)
			buf := make([]byte, mt.TrueUB())
			for _, write := range []bool{true, false} {
				measureCollective(t, r.f, buf, mt.Size(), mt, write) // builds the plans
			}
			plans := slices.Clone(r.f.eng.(*listlessEngine).plans.slots)
			if keptPlans(r.f) == 0 {
				t.Errorf("%d blocks: no plan kept", blocks)
			}
			for j, write := range []bool{true, false} {
				perOp[i][j] = measureCollective(t, r.f, buf, mt.Size(), mt, write)
			}
			if !slices.Equal(plans, r.f.eng.(*listlessEngine).plans.slots) {
				t.Errorf("%d blocks: plans changed over identical collectives", blocks)
			}
		})
	}
	t.Logf("allocs per op, [4, 16 windows][write, read]: %v", perOp)
	for j, dir := range []string{"write", "read"} {
		if perOp[1][j] > perOp[0][j] {
			t.Errorf("%s: %.1f allocs per op over about 16 windows, %.1f over 4: plans allocate per window",
				dir, perOp[1][j], perOp[0][j])
		}
	}
}

// TestPlanCacheSlots holds one slot to its life cycle: a key met once
// keeps nothing, met twice keeps its plan and counts its tables, met
// again replays the same plan; a new key drops the plan and its count;
// and a plan that would take the handle past maxPlanBytes is not kept.
func TestPlanCacheSlots(t *testing.T) {
	views := irrViews(2, 100, 7)
	_, ft := views(0)
	vp, mp := fotf.Compile(ft), fotf.Compile(irrMem(ft, 7))
	k := planKey{view: vp, a: 0, bias: 0, mem: mp, sd0: 0, n: ft.Size()}
	var c planCache
	if c.lookup(0, 3, 2, k) != nil {
		t.Fatal("a key met once has a plan")
	}
	p := c.lookup(0, 3, 2, k)
	if p == nil || c.bytes != p.Bytes() || len(c.slots) != 3*2+1 {
		t.Fatalf("met twice: plan %v, %d bytes counted, %d slots", p != nil, c.bytes, len(c.slots))
	}
	if c.lookup(0, 3, 2, k) != p || c.lookup(1, 3, 2, k) != nil {
		t.Fatal("the slot does not replay its own plan, or another slot shares it")
	}
	k2 := k
	k2.mem = fotf.Compile(irrMem(ft, 8))
	if c.lookup(0, 3, 2, k2) != nil || c.bytes != 0 {
		t.Fatalf("a new key keeps a plan, or %d bytes stay counted", c.bytes)
	}
	c.bytes = maxPlanBytes - 1 // as if other slots held nearly all of it
	if c.lookup(0, 3, 2, k2) != nil || c.lookup(0, 3, 2, k2) != nil || c.bytes != maxPlanBytes-1 {
		t.Fatalf("a plan past maxPlanBytes was kept, or counted (%d bytes)", c.bytes)
	}
}
