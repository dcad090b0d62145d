package core

import (
	"runtime/debug"
	"testing"

	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// uniqueVec builds a vector whose geometry (and therefore encoding) is
// unique to (tag, i), so tests get cache keys no other test has warmed.
func uniqueVec(t *testing.T, tag, i int64) *datatype.Type {
	t.Helper()
	dt, err := datatype.Vector(2+i%5, 3+tag%7, 64+tag*17+i*3, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	return dt
}

// TestProgramCacheLRU pins the memo cache mechanics on a private
// two-entry cache: hit moves to front, insertion evicts the back, and a
// re-lookup of an evicted key recompiles.
func TestProgramCacheLRU(t *testing.T) {
	pc := newProgramCache(2)
	a := uniqueVec(t, 1000, 0)
	b := uniqueVec(t, 1000, 1)
	c := uniqueVec(t, 1000, 2)

	if _, hit := pc.lookup(nil, a); hit {
		t.Fatal("first lookup of a must miss")
	}
	if _, hit := pc.lookup(nil, a); !hit {
		t.Fatal("second lookup of a must hit")
	}
	if _, hit := pc.lookup(nil, b); hit {
		t.Fatal("first lookup of b must miss")
	}
	// a was most recently used via its hit; refresh it so b is the LRU.
	if _, hit := pc.lookup(nil, a); !hit {
		t.Fatal("a must still be resident")
	}
	if _, hit := pc.lookup(nil, c); hit {
		t.Fatal("first lookup of c must miss")
	}
	// c's insertion must have evicted b, the least recently used, and
	// kept a, the most recently used.
	if _, hit := pc.lookup(nil, a); !hit {
		t.Fatal("a must have survived c's insertion")
	}
	if _, hit := pc.lookup(nil, b); hit {
		t.Fatal("b must have been evicted")
	}
	if got := pc.lru.Len(); got != 2 {
		t.Errorf("%d entries resident, want 2", got)
	}
}

// TestProgramCacheSharedAcrossRanks: the cache is process-wide, so the
// ranks of one in-process world share compiled programs — a view shape
// is compiled on first contact, and a second world reusing the same
// shape compiles nothing at all.
func TestProgramCacheSharedAcrossRanks(t *testing.T) {
	const P = 4
	ft := uniqueVec(t, 2000, 0) // tag unique to this test
	run := func() (compiles, hits int64) {
		sh := NewShared(storage.NewMem())
		var c, h [P]int64
		_, err := mpi.Run(P, func(p *mpi.Proc) {
			f, err := Open(p, sh, Options{Engine: Listless})
			if err != nil {
				panic(err)
			}
			defer f.Close()
			if err := f.SetView(0, datatype.Byte, ft); err != nil {
				panic(err)
			}
			c[p.Rank()], h[p.Rank()] = f.Stats.ProgramCompiles, f.Stats.ProgramCacheHits
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < P; r++ {
			compiles += c[r]
			hits += h[r]
		}
		return
	}
	compiles, hits := run()
	if compiles < 1 {
		t.Errorf("first world: %d compiles, want >= 1", compiles)
	}
	if hits == 0 {
		t.Errorf("first world: no cache hits despite %d ranks sharing one view shape", P)
	}
	compiles, hits = run()
	if compiles != 0 {
		t.Errorf("second world: %d compiles, want 0 (shape already cached)", compiles)
	}
	if hits == 0 {
		t.Error("second world: no cache hits")
	}
}

// TestProgramCacheEvictionRecompile is the end-to-end eviction test: a
// churn of more distinct fileviews than the cache holds ages the first
// one out, and re-setting it recompiles instead of hitting.
func TestProgramCacheEvictionRecompile(t *testing.T) {
	sh := NewShared(storage.NewMem())
	_, err := mpi.Run(1, func(p *mpi.Proc) {
		f, err := Open(p, sh, Options{Engine: Listless})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		first := uniqueVec(t, 3000, 0)
		if err := f.SetView(0, datatype.Byte, first); err != nil {
			panic(err)
		}
		for i := int64(1); i <= programCacheCap+4; i++ {
			if err := f.SetView(0, datatype.Byte, uniqueVec(t, 3000, i)); err != nil {
				panic(err)
			}
		}
		c0 := f.Stats.ProgramCompiles
		if err := f.SetView(0, datatype.Byte, first); err != nil {
			panic(err)
		}
		if got := f.Stats.ProgramCompiles - c0; got == 0 {
			panic("re-set of an evicted view did not recompile")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestProgramSteadyStateZeroAlloc: with a compiled program live on the
// fileview — asserted, not assumed — the steady-state collective window
// loop still performs zero allocations per window: compilation happens
// once at SetView, execution state is the embedded cursor, and the
// kernels allocate nothing.
func TestProgramSteadyStateZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	const dSmall = int64(4 * allocWinSize / 2)
	const dLarge = int64(16 * allocWinSize / 2)
	const winSmall, winLarge = 4, 16

	_, err := mpi.Run(1, func(p *mpi.Proc) {
		sh := NewShared(storage.NewMem())
		f, err := Open(p, sh, Options{Engine: Listless, CollBufSize: allocWinSize})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		if err := allocView(f, dLarge/allocBlocklen); err != nil {
			panic(err)
		}
		if f.Stats.ProgramCompiles+f.Stats.ProgramCacheHits == 0 {
			panic("fileview did not consult the program cache")
		}
		if eng, ok := f.eng.(*listlessEngine); !ok || eng.prog == nil {
			panic("no compiled program live on the fileview")
		}
		buf := make([]byte, dLarge)
		if _, err := f.WriteAtAll(0, dLarge, datatype.Byte, buf); err != nil {
			panic(err)
		}
		if _, err := f.ReadAtAll(0, dLarge, datatype.Byte, buf); err != nil {
			panic(err)
		}
		for _, write := range []bool{true, false} {
			aSmall := measureCollective(t, f, buf, dSmall, datatype.Byte, write)
			aLarge := measureCollective(t, f, buf, dLarge, datatype.Byte, write)
			if perWindow := (aLarge - aSmall) / (winLarge - winSmall); perWindow > 0 {
				t.Errorf("write=%v: %.2f allocs per steady-state window with programs live (small=%v large=%v)",
					write, perWindow, aSmall, aLarge)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
