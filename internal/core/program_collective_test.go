package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/datatype"
	"repro/internal/datatype/datatypetest"
	"repro/internal/testutil"
)

// declinedTail is 8 193 one-byte runs two bytes apart, in a vector: a
// type of more ol-list tuples than the package's tests let the program
// cache compile (compileBlocks, lowered below), which the walk takes as
// one group of runs: reaching the walk costs it O(1) runs, and the tail's
// 8 KiB of data are what the walk copies.
var declinedTail = sync.OnceValue(func() *datatype.Type {
	return mustType(datatype.Hvector(declinedBlocks+1, 1, 2, datatype.Byte))
})

// declinedBlocks is the ol-list length past which the program cache of the
// package's tests declines a type: twice the longest any test compiles
// (4 096 tuples).
const declinedBlocks = 1 << 13

func init() { compileBlocks = declinedBlocks }

// declinedType returns t followed, past its upper bound, by declinedTail:
// a type the program cache declines as a type past fotf's limits is
// declined in production, so that every copy of it takes the walk.  The
// tail's data comes after all of t's, so an access of no more than
// t.Size() bytes into a fileview of it touches the same file bytes as one
// into t.  It fails tb if the cache compiles the result.
func declinedType(tb testing.TB, t *datatype.Type) *datatype.Type {
	tb.Helper()
	tail := declinedTail()
	// A byte clear of t's data, so that the tail's first run cannot abut
	// t's last and fold the groups that follow it.
	lb := datatypetest.LB(t)
	off := max(lb+t.Extent(), t.TrueUB()+1)
	dt := mustType(datatype.Struct([]int64{1, 1}, []int64{0, off}, []*datatype.Type{t, tail}))
	if ext := off + tail.Extent() - lb; dt.Extent() != ext { // t's bound markers hold the struct's
		dt = mustType(datatype.Resized(dt, lb, ext))
	}
	if e, _ := programs.lookup(nil, dt); e.prog != nil {
		tb.Fatalf("%v followed by the tail compiles; the cell would not reach the walk", t)
	}
	return dt
}

// TestQuickProgramCollective extends the random-tree differential
// matrix with the compiled-program axis: seeded random datatype trees
// drive a 4-rank collective write + read-back across {engine} ×
// {loopback, TCP} × {compiled, declined}, and every cell's file must
// match, byte for byte, the flat oracle — so the program and walk
// stacks are proven byte-identical end to end, over real exchange and
// storage.  A declined cell's fileview is the tree followed by a tail no
// program holds (declinedType), and its access, like a compiled cell's,
// runs past two instances of the view into a third.
// Listless cells assert the memo cache was consulted, and a declined one
// that its own view was left to the walk; list-based cells that no
// program was looked up at all.  Every world runs under a Checked pool
// and a goroutine/fd leak check.
func TestQuickProgramCollective(t *testing.T) {
	const P = 4
	seeds := []int64{1, 2, 3, 5, 8, 13}
	if testing.Short() {
		seeds = seeds[:2]
	}
	fd0 := testutil.FDCount(t)
	for _, seed := range seeds {
		r := rand.New(rand.NewSource(seed))
		compiled := datatypetest.RandomFiletype(r, 3)
		extra := r.Int63n(compiled.Size())
		declinedView := declinedType(t, compiled)
		for _, eng := range engines {
			for _, tcp := range []bool{false, true} {
				for _, declined := range []bool{false, true} {
					label := fmt.Sprintf("seed %d %v tcp=%v declined=%v (base %s)", seed, eng, tcp, declined, compiled)
					base, collBuf := compiled, 64+r.Intn(256)
					if declined {
						// The tail is 16 KiB of each view: windows sixteen
						// times as large, as the differential matrix's.
						base, collBuf = declinedView, 16*collBuf
					}
					checkLeaks := testutil.LeakCheck(t)
					res := world{P: P, tcp: tcp, checked: true, opts: Options{Engine: eng, CollBufSize: collBuf}}.roundTrip(t, access{view: diffViews(base, P),
						d: 2*base.Size() + 1 + extra, seed: int(seed), check: func(r rank) {
							if e, ok := r.f.eng.(*listlessEngine); ok && (e.prog == nil) != declined {
								panic(fmt.Sprintf("rank %d: own view compiled: %v", r.p.Rank(), e.prog != nil))
							}
						}})
					if lookups := res.stats.ProgramCompiles + res.stats.ProgramCacheHits; (lookups != 0) != (eng == Listless) {
						t.Errorf("%s: %d program lookups", label, lookups)
					}
					checkLeaks()
				}
			}
		}
	}
	if fd1 := testutil.FDCount(t); fd0 >= 0 && fd1 > fd0 {
		t.Errorf("fd leak: %d before, %d after", fd0, fd1)
	}
}

// TestProgramMemtypeRoundTrip drives a non-contiguous memtype through
// both engines, independently and collectively, against the oracle.  The
// listless engine packs the memtype by its compiled program; the
// list-based engine, the paper's baseline, asks for no program and
// flattens the memtype into ol-list tuples, as ROMIO does.
func TestProgramMemtypeRoundTrip(t *testing.T) {
	const count = 16
	elem := holeyDouble()
	for _, indep := range []bool{true, false} {
		for _, eng := range engines {
			res := world{P: 2, opts: Options{Engine: eng, CollBufSize: 128, SieveBufSize: 96, PackBufSize: 64}}.roundTrip(t, access{view: fig4(2, 16, 8),
				mem: func(int) *datatype.Type { return elem }, d: count * elem.Size(), indep: indep, check: func(r rank) {
					if eng == ListBased && len(r.f.eng.newMemState(elem, count).list) == 0 {
						panic("list-based: the memtype was not flattened into tuples")
					}
				}})
			// SetView itself compiles the views; the accesses add the
			// memtype's program (listless) or its tuples (list-based).
			lookups := res.stats.ProgramCompiles + res.stats.ProgramCacheHits
			switch st := res.stats; {
			case eng == Listless && (lookups == 0 || st.ListTuples != 0):
				t.Errorf("listless indep=%v: %d program lookups, %d list tuples", indep, lookups, st.ListTuples)
			case eng == ListBased && lookups != 0:
				t.Errorf("list-based indep=%v: %d program lookups; the baseline compiles nothing", indep, lookups)
			}
		}
	}
}
