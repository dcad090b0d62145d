package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datatype"
	"repro/internal/fotf"
	"repro/internal/mpi"
	"repro/internal/pool"
	"repro/internal/storage"
	"repro/internal/transport"
)

// TestQuickCrossEngineEquivalence drives both engines through randomized
// partitioned write/read scenarios (random block geometry, buffer sizes,
// process counts, offsets, independent and collective) and requires
// byte-identical files and read-back buffers.
func TestQuickCrossEngineEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		P := 1 + r.Intn(4)
		blockcount := int64(1 + r.Intn(40))
		blocklen := int64(1 + r.Intn(48))
		collective := r.Intn(2) == 1
		offEtypes := r.Int63n(max(blockcount*blocklen/2, 1))
		dAll := blockcount*blocklen - offEtypes // bytes each rank moves
		opts := Options{
			SieveBufSize: 32 + r.Intn(512),
			PackBufSize:  16 + r.Intn(256),
			CollBufSize:  64 + r.Intn(1024),
		}
		if r.Intn(2) == 1 && P > 1 {
			opts.IONodes = 1 + r.Intn(P)
		}

		var files [2][]byte
		var reads [2][][]byte
		for ei, eng := range []Engine{Listless, ListBased} {
			be := storage.NewMem()
			sh := NewShared(be)
			o := opts
			o.Engine = eng
			readBack := make([][]byte, P)
			_, err := mpi.Run(P, func(p *mpi.Proc) {
				fh, err := Open(p, sh, o)
				if err != nil {
					panic(err)
				}
				ft := noncontigTypeP(p.Rank(), P, blockcount, blocklen)
				if err := fh.SetView(0, datatype.Byte, ft); err != nil {
					panic(err)
				}
				data := pattern(p.Rank()+int(seed%17), dAll)
				var werr error
				if collective {
					_, werr = fh.WriteAtAll(offEtypes, dAll, datatype.Byte, data)
				} else {
					_, werr = fh.WriteAt(offEtypes, dAll, datatype.Byte, data)
				}
				if werr != nil {
					panic(werr)
				}
				got := make([]byte, dAll)
				var rerr error
				if collective {
					_, rerr = fh.ReadAtAll(offEtypes, dAll, datatype.Byte, got)
				} else {
					_, rerr = fh.ReadAt(offEtypes, dAll, datatype.Byte, got)
				}
				if rerr != nil {
					panic(rerr)
				}
				if !bytes.Equal(got, data) {
					panic("round trip mismatch")
				}
				readBack[p.Rank()] = got
				fh.Close()
			})
			if err != nil {
				t.Logf("seed %d engine %v: %v", seed, eng, err)
				return false
			}
			files[ei] = be.Bytes()
			reads[ei] = readBack
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Logf("seed %d: files differ (P=%d bc=%d bl=%d coll=%v off=%d opts=%+v)",
				seed, P, blockcount, blocklen, collective, offEtypes, opts)
			return false
		}
		for rk := 0; rk < P; rk++ {
			if !bytes.Equal(reads[0][rk], reads[1][rk]) {
				t.Logf("seed %d: rank %d read-back differs between engines", seed, rk)
				return false
			}
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
// through independent I/O on a single rank under both engines.
func TestQuickRandomFiletypesIndependent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ft := datatype.RandomFiletype(r, 3)
		d := 3 * ft.Size() // three filetype instances
		offEtypes := r.Int63n(ft.Size())
		opts := Options{
			SieveBufSize: 16 + r.Intn(128),
			PackBufSize:  16 + r.Intn(64),
		}
		var files [2][]byte
		for ei, eng := range []Engine{Listless, ListBased} {
			be := storage.NewMem()
			sh := NewShared(be)
			o := opts
			o.Engine = eng
			_, err := mpi.Run(1, func(p *mpi.Proc) {
				fh, err := Open(p, sh, o)
				if err != nil {
					panic(err)
				}
				if err := fh.SetView(r.Int63n(8)*0, datatype.Byte, ft); err != nil {
					panic(err)
				}
				data := pattern(int(seed%31), d)
				if _, err := fh.WriteAt(offEtypes, d, datatype.Byte, data); err != nil {
					panic(err)
				}
				got := make([]byte, d)
				if _, err := fh.ReadAt(offEtypes, d, datatype.Byte, got); err != nil {
					panic(err)
				}
				if !bytes.Equal(got, data) {
					panic("random filetype round trip mismatch")
				}
				fh.Close()
			})
			if err != nil {
				t.Logf("seed %d engine %v type %s: %v", seed, eng, ft, err)
				return false
			}
			files[ei] = be.Bytes()
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Logf("seed %d: files differ for type %s", seed, ft)
			return false
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
	ioNodes     int  // 0: every rank is an IOP; below P, the last ranks have no self share
	tcp         bool // ranks over local TCP sockets
	tier        bool // two I/O servers: epoch commit, registered views
	declined    bool // both types decline compilation (declinedType): the walk, staged
	independent bool // WriteAt/ReadAt, data sieving
}

func (c diffCase) String() string {
	s := fmt.Sprintf("%s/P=%d", c.engine, c.P)
	for _, f := range []struct {
		on   bool
		name string
	}{
		{c.ioNodes != 0, fmt.Sprintf("ionodes=%d", c.ioNodes)}, {c.tcp, "tcp"}, {c.tier, "tier"},
		{c.declined, "declined"}, {c.independent, "independent"},
	} {
		if f.on {
			s += "/" + f.name
		}
	}
	return s
}

// diffOracle computes the expected file contents of a P-rank collective
// write directly from the datatype's Walk: rank k's data lands, in pack
// order, at the offsets of `base` shifted by k*stride within tiles of
// P*stride bytes.  No engine, flattening, exchange, or storage code is
// involved — this is the flat reference both stacks must match.
func diffOracle(base *datatype.Type, P int, stride, d int64, data [][]byte) []byte {
	var hi int64
	for rank := 0; rank < P; rank++ {
		pos := int64(0)
	tiles:
		for tile := int64(0); ; tile++ {
			origin := tile*int64(P)*stride + int64(rank)*stride
			done := false
			base.Walk(func(off, length int64) {
				if done {
					return
				}
				n := min(length, d-pos)
				fileOff := origin + off
				if end := fileOff + n; end > hi {
					hi = end
				}
				pos += n
				if pos >= d {
					done = true
				}
			})
			if done {
				break tiles
			}
		}
	}
	file := make([]byte, hi)
	for rank := 0; rank < P; rank++ {
		pos := int64(0)
	tiles2:
		for tile := int64(0); ; tile++ {
			origin := tile*int64(P)*stride + int64(rank)*stride
			done := false
			base.Walk(func(off, length int64) {
				if done {
					return
				}
				n := min(length, d-pos)
				copy(file[origin+off:origin+off+n], data[rank][pos:pos+n])
				pos += n
				if pos >= d {
					done = true
				}
			})
			if done {
				break tiles2
			}
		}
	}
	return file
}

// TestQuickDifferentialRandomTrees is the end-to-end differential
// property test: seeded random datatype trees (vector / indexed /
// struct / nested, zero-length blocks, holes) on both sides of the
// access — a random filetype and a random memtype, so every access is
// nc-nc — drive a write + read-back through every cell of diffCases, and
// every cell's file must match, byte for byte, a flat oracle computed
// from the datatype Walk alone, and every read must fill the data bytes
// of the user buffer and leave its holes alone.  The cells cross the two
// places a byte never leaves its rank (an independent sieve window, the
// self share of a collective) with everything that decides how it moves
// there: world sizes 1 to 4, fewer IOPs than ranks, the two ways to
// the staged path (the list-based engine and types that decline
// compilation), TCP ranks and the epoch-committing server
// tier — first over the random trees, whose
// short runs gather in window buffers, then over runs of a page and more,
// whose windows are direct and whose remote shares are lent, in-process
// and over TCP.  Every cell runs on a Checked pool,
// so a double-put or use-after-put anywhere in the window loop, the
// exchange, or the transport panics the world — and a lent slice of a
// user buffer that reached a pool would be poisoned, failing the
// read-back.
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
		{engine: Listless, P: 2, ioNodes: 1}, {engine: Listless, P: 3, ioNodes: 2},
		{engine: Listless, P: 3, ioNodes: 2, declined: true}, {engine: Listless, P: 2, tcp: true, declined: true},
		{engine: ListBased, P: 3, ioNodes: 2},
		{engine: Listless, P: 2, tier: true}, {engine: ListBased, P: 2, tier: true},
		{engine: Listless, P: 2, tier: true, declined: true},
		{engine: Listless, P: 1, independent: true}, {engine: Listless, P: 2, independent: true},
		{engine: Listless, P: 3, independent: true},
		{engine: Listless, P: 2, independent: true, declined: true},
		{engine: ListBased, P: 2, independent: true},
	}
	for _, seed := range seeds {
		r := rand.New(rand.NewSource(seed))
		base := datatype.RandomFiletype(r, 3)
		mt := datatype.RandomMemtype(r, 3)
		for mt.ContiguousTiled() { // every cell is nc-nc; contiguous memory has its own tests
			mt = datatype.RandomMemtype(r, 3)
		}
		extra := r.Int63n(base.Size())
		declinedBase, declinedMt := declinedType(t, base), declinedType(t, mt)
		for _, c := range cells {
			base, mt := base, mt
			if c.declined {
				base, mt = declinedBase, declinedMt
			}
			diffCell(t, fmt.Sprintf("seed %d", seed), c, base, mt, diffCount(base, mt, extra), Options{
				CollBufSize:  64 + r.Intn(256),
				SieveBufSize: 32 + r.Intn(256),
				PackBufSize:  16 + r.Intn(128),
			})
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
		base := mustType(datatype.Hvector(3, ps.fileRun, ps.filePitch, datatype.Byte))
		mt := mustType(datatype.Hvector(2, ps.memRun, ps.memPitch, datatype.Byte))
		extra := r.Int63n(base.Size())
		declinedBase, declinedMt := declinedType(t, base), declinedType(t, mt)
		for _, c := range cells {
			if c.independent || c.P > 3 {
				continue
			}
			base, mt := base, mt
			if c.declined {
				base, mt = declinedBase, declinedMt
			}
			st := diffCell(t, fmt.Sprintf("page-scale %d", i), c, base, mt, diffCount(base, mt, extra), Options{
				CollBufSize: 20000 + r.Intn(20000),
			})
			if direct := st.DirectWrites > 0 && st.DirectReads > 0; direct != (c.engine == Listless && !c.declined) {
				t.Fatalf("page-scale %d cell %s: direct windows: %v (%d writes, %d reads)", i, c, direct, st.DirectWrites, st.DirectReads)
			}
		}
	}
}

// diffCount is how many instances of mt a cell moves through views of
// base: whole memtype instances, past two filetype instances by more than
// extra bytes and so, unless the sizes conspire, into a partial final
// tile — for the drawn types and for the same types extended past what
// fotf compiles (declinedType) alike.
func diffCount(base, mt *datatype.Type, extra int64) int64 {
	return (2*base.Size()+1+extra)/mt.Size() + 1
}

// diffCell runs one cell of TestQuickDifferentialRandomTrees: every rank
// writes count instances of mt through its view — base, displaced by the
// rank's number of base extents, tiled every P extents — and reads them
// back; file and buffers are held to the flat oracle.  A declined cell's
// types each hold a 16 KiB tail, and it moves them through buffers and
// stripes sixteen times as large.  It returns rank 0's Stats.
func diffCell(t *testing.T, label string, c diffCase, base, mt *datatype.Type, count int64, opts Options) Stats {
	t.Helper()
	stripe := int64(32)
	if c.declined {
		opts.CollBufSize, opts.SieveBufSize, opts.PackBufSize = 16*opts.CollBufSize, 16*opts.SieveBufSize, 16*opts.PackBufSize
		stripe *= 16
	}
	// ValidateFiletype guarantees extent >= trueUB, so tiling rank
	// windows extent apart never overlaps.
	stride := base.Extent()
	d := count * mt.Size()
	// data is what each rank moves, bufs the same bytes laid out by
	// the memtype over a background the read-back must preserve.
	data, bufs := make([][]byte, c.P), make([][]byte, c.P)
	for rank := range data {
		data[rank] = pattern(rank*7+len(label), d)
		bufs[rank] = bytes.Repeat([]byte{0xEE}, int((count-1)*mt.Extent()+mt.TrueUB()))
		fotf.UnpackCount(bufs[rank], data[rank], count, mt, 0)
	}
	want := diffOracle(base, c.P, stride, d, data)

	var be storage.Backend = storage.NewMem()
	stop := func() {}
	if c.tier {
		be, stop = ioServerTier(t, stripe, 2)
	}
	sh := NewShared(be)
	opts.Engine, opts.IONodes = c.engine, c.ioNodes
	opts.Pool = pool.NewChecked()
	eps := transport.NewLoopback(c.P)
	if c.tcp {
		var err error
		if eps, err = transport.NewLocalTCPWorld(c.P, transport.TCPConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	var stats Stats
	_, err := mpi.RunOver(eps, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
		f, err := Open(p, sh, opts)
		if err != nil {
			panic(err)
		}
		defer f.Close()
		st, err := datatype.Struct([]int64{1}, []int64{int64(p.Rank()) * stride}, []*datatype.Type{base})
		if err != nil {
			panic(err)
		}
		view, err := datatype.Resized(st, 0, int64(c.P)*stride)
		if err != nil {
			panic(err)
		}
		if err := f.SetView(0, datatype.Byte, view); err != nil {
			panic(err)
		}
		buf := bufs[p.Rank()]
		got := bytes.Repeat([]byte{0xEE}, len(buf))
		switch {
		case c.independent:
			if _, err = f.WriteAt(0, count, mt, buf); err == nil {
				p.Barrier()
				_, err = f.ReadAt(0, count, mt, got)
			}
		default:
			if _, err = f.WriteAtAll(0, count, mt, buf); err == nil {
				_, err = f.ReadAtAll(0, count, mt, got)
			}
		}
		if err != nil {
			panic(err)
		}
		if !bytes.Equal(got, buf) {
			panic(fmt.Sprintf("rank %d: read-back differs from what was written, or a hole was touched", p.Rank()))
		}
		if p.Rank() == 0 {
			stats = f.Stats
		}
	})
	if err != nil {
		t.Fatalf("%s cell %s (filetype %s, memtype %s): %v", label, c, base, mt, err)
	}
	got := flattenBackend(t, be)
	stop()
	// File lengths may differ by a zero tail: the oracle ends at
	// the last mapped byte, while a window write-back may round
	// up (and a trailing hole rounds down).
	n := min(len(got), len(want))
	if !bytes.Equal(got[:n], want[:n]) || !allZero(got[n:]) || !allZero(want[n:]) {
		t.Fatalf("%s cell %s (filetype %s, memtype %s, stride %d, d %d): file differs from oracle (%d vs %d bytes)",
			label, c, base, mt, stride, d, len(got), len(want))
	}
	return stats
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
