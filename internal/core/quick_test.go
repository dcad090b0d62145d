package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datatype"
	"repro/internal/datatype/datatypetest"
)

// TestQuickCrossEngineEquivalence drives both engines through randomized
// partitioned write/read scenarios (random block geometry, buffer sizes,
// process counts, offsets, independent and collective) and holds every
// file and read-back to the flat oracle.
func TestQuickCrossEngineEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		P := 1 + r.Intn(4)
		blockcount, blocklen := int64(1+r.Intn(40)), int64(1+r.Intn(48))
		collective := r.Intn(2) == 1
		off := r.Int63n(max(blockcount*blocklen/2, 1))
		opts := Options{sieveBufSize: 32 + r.Intn(512), packBufSize: 16 + r.Intn(256), collBufSize: 64 + r.Intn(1024)}
		for _, eng := range engines {
			opts.Engine = eng
			world{P: P, opts: opts}.roundTrip(t, access{view: fig4(P, blockcount, blocklen), d: blockcount*blocklen - off, off: off,
				indep: !collective, seed: int(seed % 17)})
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRandomFiletypesIndependent round-trips random filetype trees
// through independent I/O on a single rank under both engines, from an
// offset inside the first instance over three instances.
func TestQuickRandomFiletypesIndependent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ft := datatypetest.RandomFiletype(r, 3)
		off := r.Int63n(ft.Size())
		opts := Options{sieveBufSize: 16 + r.Intn(128), packBufSize: 16 + r.Intn(64)}
		for _, eng := range engines {
			opts.Engine = eng
			world{P: 1, opts: opts}.roundTrip(t, access{view: func(int) (int64, *datatype.Type) { return 0, ft }, d: 3 * ft.Size(), off: off,
				indep: true, seed: int(seed % 31)})
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 80}
	if testing.Short() {
		cfg.MaxCount = 20
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// diffCase is one cell of the differential matrix: an engine and world
// shape, the options that choose between the fused and the staged copy of
// rank-local bytes, and the flavour of access.
type diffCase struct {
	engine      Engine
	P           int
	tcp         bool // ranks over local TCP sockets
	tier        bool // two I/O servers: epoch commit, registered views
	declined    bool // both types decline compilation (declinedType): the walk, staged
	independent bool // WriteAt/ReadAt, data sieving
}

func (c diffCase) String() string {
	return fmt.Sprintf("%s/P=%d/tcp=%v/tier=%v/declined=%v/independent=%v", c.engine, c.P, c.tcp, c.tier, c.declined, c.independent)
}

// diffViews is P views of base, rank k's displaced by k base extents,
// tiled every P extents: ValidateFiletype guarantees extent >= trueUB, so
// the ranks' views never overlap.
func diffViews(base *datatype.Type, P int) viewFn {
	return func(rank int) (int64, *datatype.Type) {
		st := mustType(datatype.Struct([]int64{1}, []int64{int64(rank) * base.Extent()}, []*datatype.Type{base}))
		return 0, mustType(datatype.Resized(st, 0, int64(P)*base.Extent()))
	}
}

// TestQuickDifferentialRandomTrees is the end-to-end differential
// property test: seeded random datatype trees (vector / indexed /
// struct / nested, zero-length blocks, holes) on both sides of the
// access — a random filetype and a random memtype, so every access is
// nc-nc — drive a write + read-back through every cell of diffCases, and
// every cell's file must match, byte for byte, the flat oracle, and every
// read must fill the data bytes of the user buffer and leave its holes
// alone.  The cells cross the two places a byte never leaves its rank (an
// independent sieve window, the self share of a collective) with
// everything that decides how it moves there: world sizes 1 to 4, fewer
// IOPs than ranks, the two ways to the staged path (the list-based engine
// and types that decline compilation), TCP ranks and the epoch-committing
// server tier — first over the random trees, whose short runs gather in
// window buffers, then over runs of a page and more, whose windows are
// direct and whose remote shares are lent, in-process and over TCP.  Each
// cell moves whole memtype instances past two filetype instances into a
// partial third (diffCount).  Every cell runs on a checked pool, so a
// double-put or use-after-put anywhere in the window loop, the exchange,
// or the transport panics the world — and a lent slice of a user buffer
// that reached a pool would be poisoned, failing the read-back.  A
// declined cell's types each hold a 16 KiB tail, and it moves them through
// buffers and stripes sixteen times as large.
func TestQuickDifferentialRandomTrees(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13}
	if testing.Short() {
		seeds = seeds[:2]
	}
	cells := []diffCase{
		{engine: Listless, P: 4}, {engine: Listless, P: 4, tcp: true},
		{engine: ListBased, P: 4}, {engine: ListBased, P: 4, tcp: true},
		{engine: Listless, P: 1}, {engine: Listless, P: 2}, {engine: Listless, P: 3},
		{engine: Listless, P: 2, tcp: true},
		{engine: Listless, P: 3, declined: true}, {engine: Listless, P: 2, tcp: true, declined: true},
		{engine: ListBased, P: 3},
		{engine: Listless, P: 2, tier: true}, {engine: ListBased, P: 2, tier: true},
		{engine: Listless, P: 2, tier: true, declined: true},
		{engine: Listless, P: 1, independent: true}, {engine: Listless, P: 2, independent: true},
		{engine: Listless, P: 3, independent: true},
		{engine: Listless, P: 2, independent: true, declined: true},
		{engine: ListBased, P: 2, independent: true},
	}
	// cell runs c over views of base and count instances of mt per rank;
	// declined[0] and declined[1] are base and mt extended by declinedType.
	cell := func(c diffCase, base, mt *datatype.Type, declined [2]*datatype.Type, extra int64, opts Options) Stats {
		w := world{P: c.P, tcp: c.tcp, checked: true, opts: opts, unit: 32}
		if c.declined {
			base, mt = declined[0], declined[1]
			w.opts.collBufSize, w.opts.sieveBufSize, w.opts.packBufSize, w.unit = 16*opts.collBufSize, 16*opts.sieveBufSize, 16*opts.packBufSize, 16*w.unit
		}
		w.opts.Engine = c.engine
		if c.tier {
			w.backend = "tier"
		}
		// Whole memtype instances, past two filetype instances by more
		// than extra bytes and so, unless the sizes conspire, into a
		// partial final tile — for the drawn types and the declined alike.
		count := (2*base.Size()+1+extra)/mt.Size() + 1
		return w.roundTrip(t, access{view: diffViews(base, c.P), mem: func(int) *datatype.Type { return mt }, d: count * mt.Size(), indep: c.independent}).perRank[0]
	}
	for _, seed := range seeds {
		r := rand.New(rand.NewSource(seed))
		base, mt := datatypetest.RandomFiletype(r, 3), datatypetest.RandomFiletype(r, 3)
		for mt.ContiguousTiled() { // every cell is nc-nc; contiguous memory has its own tests
			mt = datatypetest.RandomFiletype(r, 3)
		}
		extra := r.Int63n(base.Size())
		declined := [2]*datatype.Type{declinedType(t, base), declinedType(t, mt)}
		for _, c := range cells {
			cell(c, base, mt, declined, extra, Options{collBufSize: 64 + r.Intn(256), sieveBufSize: 32 + r.Intn(256), packBufSize: 16 + r.Intn(128)})
		}
	}

	// The same cells at the scale where a collective window stops being a
	// buffer: runs around a page and well above it on both sides of the
	// access, windows of a few runs that cut them anywhere.  With the
	// listless engine and its programs the windows are then direct — a
	// vectored call over the chunks and the user buffer — and every other
	// cell moves the same bytes through window buffers.
	pageScale := []struct{ fileRun, filePitch, memRun, memPitch int64 }{
		{4095, 8200, 4097, 8300}, {4096, 8192, 4096, 8192}, {4097, 9000, 16384, 20000}, {16384, 17000, 5000, 9100},
	}
	if testing.Short() {
		pageScale = pageScale[:2]
	}
	for i, ps := range pageScale {
		r := rand.New(rand.NewSource(int64(i)))
		base, mt := hvecBytes(3, ps.fileRun, ps.filePitch), hvecBytes(2, ps.memRun, ps.memPitch)
		extra := r.Int63n(base.Size())
		declined := [2]*datatype.Type{declinedType(t, base), declinedType(t, mt)}
		for _, c := range cells {
			if c.independent || c.P > 3 {
				continue
			}
			st := cell(c, base, mt, declined, extra, Options{collBufSize: 20000 + r.Intn(20000)})
			if direct := st.DirectWrites > 0 && st.DirectReads > 0; direct != (c.engine == Listless && !c.declined) {
				t.Fatalf("page-scale %d cell %s: direct windows: %v (%d writes, %d reads)", i, c, direct, st.DirectWrites, st.DirectReads)
			}
		}
	}
}
