package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datatype"
	"repro/internal/fotf"
	"repro/internal/ioserver"
	"repro/internal/mpi"
	"repro/internal/pool"
	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// Direct windows: collective windows whose every share is runs of about a
// page or more have no window buffer and no IOP: each rank moves its own
// share between its user buffer and the backend by one vectored call.
// The matrix below holds them — and the buffered windows the same
// geometries take under the list-based engine, through fileviews that
// decline compilation, with one dense share, or for a write over views
// not proved disjoint — to a flat oracle computed from the datatypes'
// Walk alone, over a file that already holds a background: a direct
// window writes the bytes of the views and no others.

// dwGeom is one access geometry: per-rank fileview and memory layout,
// every rank moving d data bytes, through windows of collBuf bytes.
type dwGeom struct {
	name    string
	P       int
	d       int64
	collBuf int
	view    func(rank int) (disp int64, ft *datatype.Type)
	mem     *datatype.Type // d must be a whole number of instances
	// direct is what the listless engine with programs must make of it:
	// +1 every window direct, -1 every window buffered, 0 either (a mix).
	direct int
	// overlap: the views are not proved disjoint, so a write keeps every
	// window buffered whatever direct says.
	overlap bool
}

func mustType(dt *datatype.Type, err error) *datatype.Type {
	if err != nil {
		panic(err)
	}
	return dt
}

// stridedView is rank's share of runs of run bytes, the ranks' runs
// pitch bytes apart and each rank's own P*pitch apart: interleaved, with
// a hole after every run when run < pitch.  The rank's offset is inside
// its filetype, whose lower bound and extent every rank shares, so that
// SetView proves the views disjoint (viewsApart) and a collective write
// may take direct windows.
func stridedView(P int, n, run, pitch int64) func(int) (int64, *datatype.Type) {
	return func(rank int) (int64, *datatype.Type) {
		vec := mustType(datatype.Hvector(n, run, int64(P)*pitch, datatype.Byte))
		at := mustType(datatype.Hindexed([]int64{1}, []int64{int64(rank) * pitch}, vec))
		return 0, mustType(datatype.Resized(at, 0, n*int64(P)*pitch))
	}
}

// declinedViews is view with every rank's fileview extended by
// declinedType, so that no view compiles.
func declinedViews(t *testing.T, P int, view func(int) (int64, *datatype.Type)) func(int) (int64, *datatype.Type) {
	disps, fts := make([]int64, P), make([]*datatype.Type, P)
	for rank := range fts {
		disp, ft := view(rank)
		disps[rank], fts[rank] = disp, declinedType(t, ft)
	}
	return func(rank int) (int64, *datatype.Type) { return disps[rank], fts[rank] }
}

func hvecBytes(n, run, pitch int64) *datatype.Type {
	return mustType(datatype.Hvector(n, run, pitch, datatype.Byte))
}

// dwGeoms: run lengths on both sides of a page in the file and in
// memory, window sizes that cut runs, and the shapes that must keep the
// buffer.
func dwGeoms() []dwGeom {
	const win = 40000 // no multiple of any run or pitch below: runs straddle window edges
	gs := []dwGeom{
		{name: "4095B-runs/P=2", P: 2, d: 12 * 4095, collBuf: win, view: stridedView(2, 12, 4095, 4096), mem: datatype.Byte, direct: +1},
		{name: "4096B-runs/P=2", P: 2, d: 12 * 4096, collBuf: win, view: stridedView(2, 12, 4096, 4096), mem: datatype.Byte, direct: +1},
		{name: "4097B-runs/P=3", P: 3, d: 12 * 4097, collBuf: win, view: stridedView(3, 12, 4097, 6000), mem: datatype.Byte, direct: +1},
		{name: "16K-runs/P=2", P: 2, d: 8 * 16384, collBuf: win, view: stridedView(2, 8, 16384, 16384), mem: hvecBytes(8, 16384, 32768), direct: +1},
		{name: "16K-runs/P=3", P: 3, d: 8 * 16384, collBuf: win, view: stridedView(3, 8, 16384, 16384), mem: hvecBytes(8, 16384, 32768), direct: +1},
		{name: "16K-runs-holes/P=1", P: 1, d: 8 * 16384, collBuf: win, view: stridedView(1, 8, 16384, 20000), mem: hvecBytes(8, 16384, 32768), direct: +1},
		// Memory runs shorter than the file's, and the reverse; both
		// sides sparse, neither a multiple of the other.
		{name: "mem-5000B-file-16K/P=2", P: 2, d: 10 * 16000, collBuf: win, view: stridedView(2, 10, 16000, 17000), mem: hvecBytes(32, 5000, 9000), direct: +1},
		{name: "mem-12000B-file-4000B/P=3", P: 3, d: 24000, collBuf: win, view: stridedView(3, 6, 4000, 6000), mem: hvecBytes(2, 12000, 13000), direct: +1},
		// A window inside one long run: the share is contiguous.
		{name: "window-inside-run/P=2", P: 2, d: 4 * 50000, collBuf: 8192, view: stridedView(2, 4, 50000, 50000), mem: datatype.Byte, direct: +1},
		// Long file runs from a memory layout of 8-byte pieces: the rule is
		// the file's, and the own share, a list entry per piece in memory,
		// goes through a pack buffer.
		{name: "mem-8B-file-16K/P=1", P: 1, d: 4 * 16384, collBuf: win, view: stridedView(1, 4, 16384, 20000), mem: mustType(datatype.Resized(datatype.Double, 0, 16)), direct: +1},
		// Short runs: the regime the window buffer exists for.
		{name: "64B-runs/P=2", P: 2, d: 512 * 64, collBuf: win, view: stridedView(2, 512, 64, 64), mem: datatype.Byte, direct: -1},
	}
	// One AP sparse, the other dense, in the same windows: rank 0 holds
	// 8 KiB runs, rank 1 8-byte pieces in the gaps between them.  One
	// dense share keeps the window.
	gs = append(gs, dwGeom{name: "one-dense-share/P=2", P: 2, d: 6 * 8192, collBuf: win, mem: datatype.Byte, direct: -1,
		view: func(rank int) (int64, *datatype.Type) {
			if rank == 0 {
				return 0, mustType(datatype.Resized(hvecBytes(6, 8192, 16384), 0, 6*16384))
			}
			// 512 pieces fill a gap; d bytes of them fill twelve gaps.
			return 8192, mustType(datatype.Resized(hvecBytes(512, 8, 16), 0, 16384))
		}})
	// Overlapping views: both ranks write the same runs; the higher rank
	// wins, as the window path merges in rank order, so a write keeps the
	// buffer.  Each rank reads its runs itself.
	gs = append(gs, dwGeom{name: "overlapping-views/P=2", P: 2, d: 6 * 8192, collBuf: win, mem: datatype.Byte, direct: +1, overlap: true,
		view: func(int) (int64, *datatype.Type) {
			return 0, mustType(datatype.Resized(hvecBytes(6, 8192, 16384), 0, 6*16384))
		}})
	// Overlapping views that leave a hole: of every 100-byte tile rank 0
	// views [0,50) and rank 1 [0,20) and [70,100).  The ranks' shares add
	// up to each window's length while nobody writes [50,70), so a window
	// that skipped its pre-read on that sum would overwrite the hole.
	gs = append(gs, dwGeom{name: "overlap-with-hole/P=2", P: 2, d: 1000 * 50, collBuf: win, mem: datatype.Byte, direct: -1,
		view: func(rank int) (int64, *datatype.Type) {
			if rank == 0 {
				return 0, mustType(datatype.Resized(hvecBytes(1, 50, 50), 0, 100))
			}
			return 0, mustType(datatype.Resized(mustType(datatype.Hindexed([]int64{20, 30}, []int64{0, 70}, datatype.Byte)), 0, 100))
		}})
	// Ghosted 2-D tiles: a 2x2 grid of 16x12 tiles of 8-byte elements,
	// each grown by a ring of 6 and clipped at the dataset's edges, so the
	// subarray views of neighbours share rows and columns and one
	// collective read delivers the shared bytes to every rank that views
	// them.  A window holds four 256-byte rows, so every share in it is
	// runs with gaps between them and the window keeps its buffer.
	gs = append(gs, dwGeom{name: "ghosted-tiles/P=4", P: 4, d: 22 * 18 * 8, collBuf: 1024, view: ghostedTile(16, 12, 6), mem: datatype.Byte, direct: -1})
	return gs
}

// ghostedTile is rank's tile of a 2x2 grid of tx by ty tiles of 8-byte
// elements in a row-major dataset, grown by ring elements on every side
// and clipped at the dataset's edges.
func ghostedTile(tx, ty, ring int64) func(int) (int64, *datatype.Type) {
	return func(rank int) (int64, *datatype.Type) {
		x, y := int64(rank%2)*tx, int64(rank/2)*ty
		x0, y0 := max(x-ring, 0), max(y-ring, 0)
		x1, y1 := min(x+tx+ring, 2*tx), min(y+ty+ring, 2*ty)
		elem := mustType(datatype.Contiguous(8, datatype.Byte))
		return 0, mustType(datatype.Subarray([]int64{2 * ty, 2 * tx}, []int64{y1 - y0, x1 - x0}, []int64{y0, x0}, datatype.OrderC, elem))
	}
}

// dwCell is one way to run a geometry.
type dwCell struct {
	name    string
	opts    Options
	ioNodes int // with the geometry's P: min(ioNodes, P) when nonzero
	tcp     bool
	backend func(t *testing.T) (be storage.Backend, stop func())
	// buffered: the cell answers "window" whatever the geometry.
	buffered bool
	// epochs: the backend commits collective writes by epoch.  It is then
	// used bare — storage.Instrumented does not forward the capability —
	// and the backend reads of the write are not counted.
	epochs bool
	// declined: every fileview is extended by declinedType, so that no
	// rank's view compiles and every window copy walks the tree.
	declined bool
}

func memBackend(*testing.T) (storage.Backend, func()) { return storage.NewMem(), func() {} }

func dwCells() []dwCell {
	return []dwCell{
		{name: "listless", backend: memBackend},
		{name: "listless/tcp", tcp: true, backend: memBackend},
		{name: "listless/ionodes=1", ioNodes: 1, backend: memBackend},
		{name: "listless/ionodes=2", ioNodes: 2, backend: memBackend},
		{name: "declined", declined: true, buffered: true, backend: memBackend},
		{name: "list-based", opts: Options{Engine: ListBased}, buffered: true, backend: memBackend},
		{name: "listless/throttled", backend: func(*testing.T) (storage.Backend, func()) {
			return storage.NewThrottled(storage.NewMem(), 1<<30, 1<<30, 50*time.Microsecond), func() {}
		}},
		{name: "listless/file", backend: func(t *testing.T) (storage.Backend, func()) {
			fb, err := storage.OpenFile(filepath.Join(t.TempDir(), "direct.dat"))
			if err != nil {
				t.Fatal(err)
			}
			return fb, func() { fb.Close() }
		}},
		{name: "listless/epoch-tier", epochs: true, backend: func(t *testing.T) (storage.Backend, func()) { return ioServerTier(t, 4096, 2) }},
		{name: "list-based/epoch-tier", opts: Options{Engine: ListBased}, buffered: true, epochs: true,
			backend: func(t *testing.T) (storage.Backend, func()) { return ioServerTier(t, 4096, 2) }},
	}
}

// viewPlaces calls place(fileOff, dataOff, n) for each contiguous piece
// of the first d data bytes of the view, from the type map alone.
func viewPlaces(disp int64, ft *datatype.Type, d int64, place func(fileOff, dataOff, n int64)) {
	var pos int64
	for tile := int64(0); pos < d; tile++ {
		ft.Walk(func(off, length int64) {
			if n := min(length, d-pos); n > 0 {
				place(disp+tile*ft.Extent()+off, pos, n)
				pos += n
			}
		})
	}
}

const dwBackground = 0x5A

// dwOracle is the file a collective write of g must leave over the
// background, and what each rank must then read back.
func dwOracle(g dwGeom, data [][]byte) (file []byte, reads [][]byte) {
	var end int64
	for rank := 0; rank < g.P; rank++ {
		disp, ft := g.view(rank)
		viewPlaces(disp, ft, g.d, func(off, _, n int64) { end = max(end, off+n) })
	}
	file = bytes.Repeat([]byte{dwBackground}, int(end)+777) // a tail no window may touch
	for rank := 0; rank < g.P; rank++ {                     // ascending: the higher rank wins an overlap
		disp, ft := g.view(rank)
		viewPlaces(disp, ft, g.d, func(off, at, n int64) { copy(file[off:off+n], data[rank][at:at+n]) })
	}
	reads = make([][]byte, g.P)
	for rank := range reads {
		reads[rank] = make([]byte, g.d)
		disp, ft := g.view(rank)
		viewPlaces(disp, ft, g.d, func(off, at, n int64) { copy(reads[rank][at:at+n], file[off:off+n]) })
	}
	return file, reads
}

// runDirectWindowCell runs one write + read-back of g in cell c and
// checks it against the oracle.  It returns the ranks' summed Stats and
// the backend reads counted during the collective write.
func runDirectWindowCell(t *testing.T, g dwGeom, c dwCell) (Stats, int64) {
	t.Helper()
	if c.declined {
		g.view = declinedViews(t, g.P, g.view)
	}
	count := g.d / g.mem.Size()
	if count*g.mem.Size() != g.d {
		t.Fatalf("%s: d = %d is no whole number of %d-byte memtype instances", g.name, g.d, g.mem.Size())
	}
	data, bufs := make([][]byte, g.P), make([][]byte, g.P)
	for rank := range data {
		data[rank] = pattern(rank*5+1, g.d)
		bufs[rank] = bytes.Repeat([]byte{0xEE}, int((count-1)*g.mem.Extent()+g.mem.TrueUB()))
		fotf.UnpackCount(bufs[rank], data[rank], count, g.mem, 0)
	}
	want, wantReads := dwOracle(g, data)

	raw, stop := c.backend(t)
	defer stop()
	if _, err := raw.WriteAt(bytes.Repeat([]byte{dwBackground}, len(want)), 0); err != nil {
		t.Fatal(err)
	}
	inst := storage.NewInstrumented(raw)
	sh := NewShared(inst)
	if c.epochs {
		sh = NewShared(raw)
	}
	opts := c.opts
	opts.CollBufSize, opts.Pool, opts.IONodes = g.collBuf, pool.NewChecked(), min(c.ioNodes, g.P)

	eps := transport.NewLoopback(g.P)
	if c.tcp {
		var err error
		if eps, err = transport.NewLocalTCPWorld(g.P, transport.TCPConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	stats := make([]Stats, g.P)
	var writeReads atomic.Int64
	_, err := mpi.RunOver(eps, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
		f, err := Open(p, sh, opts)
		if err != nil {
			panic(err)
		}
		defer f.Close()
		disp, ft := g.view(p.Rank())
		if err := f.SetView(disp, datatype.Byte, ft); err != nil {
			panic(err)
		}
		buf := bufs[p.Rank()]
		orig := bytes.Clone(buf)
		before := inst.Stats().Reads
		p.Barrier()
		if _, err := f.WriteAtAll(0, count, g.mem, buf); err != nil {
			panic(err)
		}
		if !bytes.Equal(buf, orig) {
			// A piece of the user buffer that reached the checked pool
			// would have been poisoned.
			panic(fmt.Sprintf("rank %d: the write changed its user buffer", p.Rank()))
		}
		if p.Rank() == 0 {
			writeReads.Store(inst.Stats().Reads - before)
		}
		p.Barrier()
		got := bytes.Repeat([]byte{0xEE}, len(buf))
		if _, err := f.ReadAtAll(0, count, g.mem, got); err != nil {
			panic(err)
		}
		wantBuf := bytes.Repeat([]byte{0xEE}, len(buf))
		fotf.UnpackCount(wantBuf, wantReads[p.Rank()], count, g.mem, 0)
		if !bytes.Equal(got, wantBuf) {
			panic(fmt.Sprintf("rank %d: read-back differs from the oracle's, or a hole of the user buffer was touched", p.Rank()))
		}
		if msg := keepsNoBuffer(f); msg != "" {
			panic(fmt.Sprintf("rank %d: %s after the collectives", p.Rank(), msg))
		}
		stats[p.Rank()] = f.Stats
	})
	if err != nil {
		t.Fatalf("%s/%s: %v", g.name, c.name, err)
	}
	if got := flattenBackend(t, raw); !bytes.Equal(got, want) {
		at := 0
		for at < min(len(got), len(want)) && got[at] == want[at] {
			at++
		}
		t.Fatalf("%s/%s: file differs from the oracle at byte %d of %d (%d): a view byte is wrong or a byte outside the views was rewritten",
			g.name, c.name, at, len(want), len(got))
	}
	var sum Stats
	for _, s := range stats {
		sum.SieveWrites += s.SieveWrites
		sum.SieveReads += s.SieveReads
		sum.PreReadsSkipped += s.PreReadsSkipped
		sum.DirectWrites += s.DirectWrites
		sum.DirectReads += s.DirectReads
		sum.VectoredWrites += s.VectoredWrites
		sum.VectoredReads += s.VectoredReads
		sum.EpochsCommitted += s.EpochsCommitted
	}
	if c.epochs && sum.EpochsCommitted != int64(g.P) {
		t.Errorf("%s/%s: %d epoch commits counted over %d ranks, want one each", g.name, c.name, sum.EpochsCommitted, g.P)
	}
	return sum, writeReads.Load()
}

// keepsNoBuffer says what the handle still holds of a collective that has
// returned — a segment of its batch array or a held share that references
// a user or pooled buffer — or "" when nothing.
func keepsNoBuffer(f *File) string {
	for _, sg := range f.segs[:cap(f.segs)] {
		if sg.Buf != nil {
			return fmt.Sprintf("the handle's batch array (%d segments) still references a buffer", len(f.segs))
		}
	}
	if len(f.held) != 0 || len(f.kept) != 0 {
		return fmt.Sprintf("the handle holds %d direct shares and keeps %d buffers", len(f.held), len(f.kept))
	}
	return ""
}

func allNil(chunks [][]byte) bool {
	for _, c := range chunks {
		if c != nil {
			return false
		}
	}
	return true
}

// TestDirectWindowMatrix: every geometry in every cell against the
// oracle, and the path each must have taken in counted work — a window
// is direct exactly when no share in it is page-dense in the file, the
// engine has the programs to enumerate every share and, for a write, the
// views are proved disjoint; a direct window is no IOP's (no window
// counted) but one vectored call per rank with a share in it, and a
// direct write reads nothing.
func TestDirectWindowMatrix(t *testing.T) {
	defer testutil.LeakCheck(t)()
	geoms, cells := dwGeoms(), dwCells()
	if testing.Short() {
		cells = cells[:4]
	}
	for _, g := range geoms {
		for _, c := range cells {
			label := g.name + "/" + c.name
			s, writeReads := runDirectWindowCell(t, g, c)
			for _, op := range []struct {
				name                    string
				windows, batches, segs  int64
				direct, buffered, write bool
			}{
				{"write", s.SieveWrites, s.VectoredWrites, s.DirectWrites, !c.buffered && g.direct > 0 && !g.overlap, c.buffered || g.direct < 0 || g.overlap, true},
				{"read", s.SieveReads, s.VectoredReads, s.DirectReads, !c.buffered && g.direct > 0, c.buffered || g.direct < 0, false},
			} {
				switch {
				case op.windows+op.batches == 0:
					t.Fatalf("%s: the %s moved nothing", label, op.name)
				case op.direct && (op.windows != 0 || op.segs < op.batches):
					t.Errorf("%s: the %s took %d IOP windows and %d segments in %d own batches; want only own batches",
						label, op.name, op.windows, op.segs, op.batches)
				case op.direct && op.write && writeReads != 0:
					t.Errorf("%s: the collective write read the backend %d times; a direct window is no read-modify-write", label, writeReads)
				case op.buffered && op.segs+op.batches != 0:
					t.Errorf("%s: %d segments in %d own batches of the %s where every window must take the buffer", label, op.segs, op.batches, op.name)
				}
			}
		}
	}
}

// retryOnceTier makes the first commit of the tier report a lost epoch,
// as a server that restarted between seal and commit does.
type retryOnceTier struct {
	*ioserver.Striped
	tripped atomic.Bool
}

func (r *retryOnceTier) EpochCommit(id uint64) error {
	if r.tripped.CompareAndSwap(false, true) {
		return fmt.Errorf("test: first commit refused: %w", storage.ErrEpochRetry)
	}
	return r.Striped.EpochCommit(id)
}

// TestDirectWindowEpochs: on the epoch tier the ranks' own batches of
// direct windows stage under the collective's epoch, from their user
// buffers, as a buffered window's write-back does.  A commit publishes
// them; a collective that fails in one rank's last batch aborts the epoch,
// and the batches already staged, that rank's and the others', never
// show; a commit that must be retried (ErrEpochRetry) re-seals and commits
// the same staged batches.  In-process at P = 2 and over TCP at P = 3.
func TestDirectWindowEpochs(t *testing.T) {
	defer testutil.LeakCheck(t)()
	for _, g := range dwGeoms()[3:5] { // 16 KiB runs, non-contiguous memory, P = 2 and 3
		if g.direct <= 0 {
			t.Fatal("geometry is not a direct one")
		}
		for _, outcome := range []string{"commit", "abort", "retry"} {
			testDirectWindowEpoch(t, g, outcome, g.P > 2)
		}
	}
}

func testDirectWindowEpoch(t *testing.T, g dwGeom, outcome string, tcp bool) {
	label := fmt.Sprintf("%s/%s", g.name, outcome)
	count := g.d / g.mem.Size()
	data, bufs := make([][]byte, g.P), make([][]byte, g.P)
	for rank := range data {
		data[rank] = pattern(rank+11, g.d)
		bufs[rank] = make([]byte, (count-1)*g.mem.Extent()+g.mem.TrueUB())
		fotf.UnpackCount(bufs[rank], data[rank], count, g.mem, 0)
	}
	want, _ := dwOracle(g, data)
	background := bytes.Repeat([]byte{dwBackground}, len(want))

	tier, stop := ioServerTier(t, 4096, 2)
	defer stop()
	if _, err := tier.WriteAt(background, 0); err != nil {
		t.Fatal(err)
	}
	var be storage.Backend = tier
	var fb *storage.Faulty
	switch outcome {
	case "abort":
		fb = storage.NewFaulty(tier)
		be = fb
	case "retry":
		be = &retryOnceTier{Striped: tier}
	}
	sh := NewShared(be)
	eps := transport.NewLoopback(g.P)
	if tcp {
		var err error
		if eps, err = transport.NewLocalTCPWorld(g.P, transport.TCPConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	errs := make([]error, g.P)
	var st Stats
	_, err := mpi.RunOver(eps, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
		f, err := Open(p, sh, Options{CollBufSize: g.collBuf, Pool: pool.NewChecked()})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		disp, ft := g.view(p.Rank())
		if err := f.SetView(disp, datatype.Byte, ft); err != nil {
			panic(err)
		}
		if fb != nil && p.Rank() == 0 {
			// The last run of the views, the last rank's: it moves that
			// batch last of its own, in the last IOP's domain.
			fb.FailWriteRange(int64(len(want))-777-100, int64(len(want)))
		}
		p.Barrier()
		_, errs[p.Rank()] = f.WriteAtAll(0, count, g.mem, bufs[p.Rank()])
		if msg := keepsNoBuffer(f); msg != "" {
			panic(fmt.Sprintf("rank %d: %s after the write", p.Rank(), msg))
		}
		if p.Rank() == 0 {
			st = f.Stats
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got := flattenBackend(t, tier)
	if st.SieveWrites != 0 || st.VectoredWrites == 0 {
		t.Errorf("%s: %d IOP windows and %d own batches; want only own batches", label, st.SieveWrites, st.VectoredWrites)
	}
	switch outcome {
	case "abort":
		requireAgreement(t, label, errs, g.P-1, PhaseIOPWindow)
		if !bytes.Equal(got, background) {
			t.Errorf("%s: staged direct batches of a failed collective reached the file", label)
		}
	default:
		for r, e := range errs {
			if e != nil {
				t.Fatalf("%s: rank %d: %v", label, r, e)
			}
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: committed file differs from the oracle", label)
		}
		if wantRetries := map[string]int64{"commit": 0, "retry": 1}[outcome]; st.EpochRetries != wantRetries || st.EpochsCommitted != 1 {
			t.Errorf("%s: %d epochs committed after %d retries, want 1 after %d", label, st.EpochsCommitted, st.EpochRetries, wantRetries)
		}
	}
}

// TestDirectWindowFaults: a vectored write and a vectored read that fail
// in one rank's own batch of a direct window — armed by range, in the
// last run of the views, the last rank's, and by count, in rank 1's third
// call — end in the same CollectiveError naming that rank on every rank,
// no buffer left referenced by the handle (checked pool: none returned
// twice either), no goroutine left, and a handle whose next collective
// works, in-process and over TCP, at P = 2 and P = 3.  Each rank mounts the
// file through a Faulty of its own, so that a count names one rank's
// calls however the ranks' calls interleave.  Every rank rewrites its
// buffer at once after the failed collective, which under -race no
// goroutine of the collective may still be reading or writing.
func TestDirectWindowFaults(t *testing.T) {
	for _, g := range dwGeoms()[3:5] {
		for _, arm := range []string{"range", "count"} {
			for _, op := range []string{"write", "read"} {
				for _, tcp := range []bool{false, true} {
					testDirectWindowFault(t, g, arm, op, tcp)
				}
			}
		}
	}
}

func testDirectWindowFault(t *testing.T, g dwGeom, arm, op string, tcp bool) {
	label := fmt.Sprintf("%s/%s/%s/tcp=%v", g.name, arm, op, tcp)
	count := g.d / g.mem.Size()
	checkLeaks := testutil.LeakCheck(t)
	mem := storage.NewMem()
	fbs := make([]*storage.Faulty, g.P)
	for r := range fbs {
		fbs[r] = storage.NewFaulty(mem)
	}
	errs := make([]error, g.P)
	failRank := g.P - 1
	if arm == "count" {
		failRank = 1
	}
	eps := transport.NewLoopback(g.P)
	if tcp {
		var err error
		if eps, err = transport.NewLocalTCPWorld(g.P, transport.TCPConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := mpi.RunOver(eps, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
		fb := fbs[p.Rank()]
		f, err := Open(p, NewShared(fb), Options{CollBufSize: g.collBuf, Pool: pool.NewChecked()})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		disp, ft := g.view(p.Rank())
		if err := f.SetView(disp, datatype.Byte, ft); err != nil {
			panic(err)
		}
		buf := make([]byte, (count-1)*g.mem.Extent()+g.mem.TrueUB())
		fotf.UnpackCount(buf, pattern(p.Rank(), g.d), count, g.mem, 0)
		if _, err := f.WriteAtAll(0, count, g.mem, buf); err != nil {
			panic(err)
		}
		if f.Stats.SieveWrites != 0 || f.Stats.VectoredWrites < 3 {
			panic("the geometry did not take direct windows")
		}
		p.Barrier()
		if p.Rank() == failRank {
			size := mem.Size()
			switch {
			case arm == "range" && op == "write":
				fb.FailWriteRange(size-100, size)
			case arm == "range":
				fb.FailReadRange(size-100, size)
			case op == "write":
				fb.FailWrites(3) // every rank has more direct windows than that
			default:
				fb.FailReads(3)
			}
		}
		p.Barrier()
		if op == "write" {
			_, errs[p.Rank()] = f.WriteAtAll(0, count, g.mem, buf)
			fotf.UnpackCount(buf, pattern(p.Rank()+7, g.d), count, g.mem, 0)
		} else {
			dst := make([]byte, len(buf))
			_, errs[p.Rank()] = f.ReadAtAll(0, count, g.mem, dst)
			for i := range dst {
				dst[i] = 0xEE
			}
		}
		if msg := keepsNoBuffer(f); msg != "" {
			panic(fmt.Sprintf("rank %d: %s after the failed collective", p.Rank(), msg))
		}
		p.Barrier()
		fb.Heal()
		p.Barrier()
		if _, err := f.WriteAtAll(0, count, g.mem, buf); err != nil {
			panic(fmt.Sprintf("post-heal write: %v", err))
		}
		got := make([]byte, len(buf))
		if _, err := f.ReadAtAll(0, count, g.mem, got); err != nil {
			panic(fmt.Sprintf("post-heal read: %v", err))
		}
		if !bytes.Equal(got, buf) {
			panic("post-heal round trip differs")
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	requireAgreement(t, label, errs, failRank, PhaseIOPWindow)
	for _, e := range errs {
		if !errors.Is(e, storage.ErrPermanent) {
			t.Errorf("%s: %v lost its classification", label, e)
		}
	}
	checkLeaks()
}

// TestDirectWindowsMoveNoData pins the direct-window rule in counted work.
// Each rank views 16 KiB runs, interleaved with the other ranks', after
// (layout "one-dense") a first window of 64-byte runs, interleaved too,
// which is page-dense.  Rank 0 moves its data from memory of 8-byte
// pieces, the others from contiguous memory, so that a rule that read a
// rank's own memory would not give every rank the same answer.  Over the
// loopback and over TCP, on Mem and on a two-server tier with epochs, at
// P = 2 and P = 3 with fewer IOPs than ranks, a write and a read of n runs
// and of 2n runs per rank:
//   - on the listless engine no sparse window is an IOP's: the IOPs count
//     only the dense window, every rank moves its own share of every other
//     one itself, and the rank fabric carries the same messages and
//     payload bytes at both sizes, none per byte of data — the plan, the
//     vote and the epoch's rounds, and over TCP the other ranks' shares of
//     the dense window;
//   - the list-based engine is unchanged: every window is an IOP's, and
//     the payload grows with the data;
//   - every file and every read is the flat oracle's.
func TestDirectWindowsMoveNoData(t *testing.T) {
	defer testutil.LeakCheck(t)()
	const run, piece, k = 16384, 64, 256 // the dense window holds k pieces per rank
	for _, P := range []int{2, 3} {
		win := k * piece * int64(P)
		for _, layout := range []string{"all-sparse", "one-dense"} {
			g := dwGeom{P: P, collBuf: int(win), view: func(rank int) (int64, *datatype.Type) {
				sparse := hvecBytes(16, run, int64(P)*run)
				if layout == "all-sparse" {
					at := mustType(datatype.Hindexed([]int64{1}, []int64{int64(rank) * run}, sparse))
					return 0, mustType(datatype.Resized(at, 0, 16*int64(P)*run))
				}
				dense := hvecBytes(k, piece, int64(P)*piece)
				both := mustType(datatype.Struct([]int64{1, 1}, []int64{int64(rank) * piece, win + int64(rank)*run},
					[]*datatype.Type{dense, sparse}))
				return 0, mustType(datatype.Resized(both, 0, win+16*int64(P)*run))
			}}
			dense := int64(0) // data bytes per rank in the dense window
			if layout == "one-dense" {
				dense = k * piece
			}
			for _, tcp := range []bool{false, true} {
				for _, tier := range []bool{false, true} {
					for _, eng := range []Engine{Listless, ListBased} {
						label := fmt.Sprintf("P=%d/%s/tcp=%v/tier=%v/%v", P, layout, tcp, tier, eng)
						ops := runMoveNoData(t, label, g, dense, run, eng, tcp, tier)
						checkMoveNoData(t, label, ops, P, dense, eng, tcp)
					}
				}
			}
		}
	}
}

// moveOp is what one collective of TestDirectWindowsMoveNoData cost the
// world: the ranks' summed Stats and sent traffic.
type moveOp struct {
	st       Stats
	msgs, by int64
}

// runMoveNoData writes and reads n = 4 and then n = 8 runs per rank (and
// the dense window's share) of g and returns the four collectives' costs,
// in the order write 4, read 4, write 8, read 8.
func runMoveNoData(t *testing.T, label string, g dwGeom, dense, run int64, eng Engine, tcp, tier bool) [4]moveOp {
	t.Helper()
	mems := make([]*datatype.Type, g.P)
	for r := range mems {
		mems[r] = datatype.Byte
	}
	mems[0] = holeyDouble()
	sizes := []int64{dense + 4*run, dense + 8*run}
	data, want, wantReads := make([][][]byte, 2), make([][]byte, 2), make([][][]byte, 2)
	for i, d := range sizes {
		data[i] = make([][]byte, g.P)
		for r := range data[i] {
			data[i][r] = pattern(10*i+r, d)
		}
		gd := g
		gd.d = d
		want[i], wantReads[i] = dwOracle(gd, data[i])
	}
	// Over the background of the larger write, which the smaller leaves.
	want[0] = append(want[0], bytes.Repeat([]byte{dwBackground}, len(want[1])-len(want[0]))...)
	var be storage.Backend = storage.NewMem()
	if tier {
		ts, stop := ioServerTier(t, 4096, 2)
		defer stop()
		be = ts
	}
	if _, err := be.WriteAt(bytes.Repeat([]byte{dwBackground}, len(want[1])), 0); err != nil {
		t.Fatal(err)
	}
	sh := NewShared(be)
	eps := transport.NewLoopback(g.P)
	if tcp {
		var err error
		if eps, err = transport.NewLocalTCPWorld(g.P, transport.TCPConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	var costs [4][]moveOp
	for i := range costs {
		costs[i] = make([]moveOp, g.P)
	}
	_, err := mpi.RunOver(eps, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
		f, err := Open(p, sh, Options{Engine: eng, CollBufSize: g.collBuf, IONodes: g.P - 1, Pool: pool.NewChecked()})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		disp, ft := g.view(p.Rank())
		if err := f.SetView(disp, datatype.Byte, ft); err != nil {
			panic(err)
		}
		mt := mems[p.Rank()]
		for i, d := range sizes {
			count := d / mt.Size()
			bufLen := (count-1)*mt.Extent() + mt.TrueUB()
			buf := bytes.Repeat([]byte{0xEE}, int(bufLen))
			fotf.UnpackCount(buf, data[i][p.Rank()], count, mt, 0)
			got := bytes.Repeat([]byte{0xEE}, int(bufLen))
			for j, write := range []bool{true, false} {
				p.Barrier()
				s0, st0 := p.SentStats(), f.Stats
				if write {
					_, err = f.WriteAtAll(0, count, mt, buf)
				} else {
					_, err = f.ReadAtAll(0, count, mt, got)
				}
				if err != nil {
					panic(err)
				}
				s1 := p.SentStats()
				costs[2*i+j][p.Rank()] = moveOp{st: f.Stats.Sub(st0), msgs: s1.Messages - s0.Messages, by: s1.Bytes - s0.Bytes}
			}
			p.Barrier()
			if p.Rank() == 0 && !bytes.Equal(flattenBackend(t, be), want[i]) {
				panic(fmt.Sprintf("write of %d bytes per rank: the file differs from the oracle", d))
			}
			wantBuf := bytes.Repeat([]byte{0xEE}, int(bufLen))
			fotf.UnpackCount(wantBuf, wantReads[i][p.Rank()], count, mt, 0)
			if !bytes.Equal(got, wantBuf) {
				panic(fmt.Sprintf("rank %d: the read of %d bytes differs from the oracle", p.Rank(), d))
			}
			if msg := keepsNoBuffer(f); msg != "" {
				panic(fmt.Sprintf("rank %d: %s", p.Rank(), msg))
			}
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var ops [4]moveOp
	for i, per := range costs {
		for _, c := range per {
			ops[i].msgs += c.msgs
			ops[i].by += c.by
			ops[i].st.SieveWrites += c.st.SieveWrites
			ops[i].st.SieveReads += c.st.SieveReads
			ops[i].st.VectoredWrites += c.st.VectoredWrites
			ops[i].st.VectoredReads += c.st.VectoredReads
		}
	}
	return ops
}

func checkMoveNoData(t *testing.T, label string, ops [4]moveOp, P int, dense int64, eng Engine, tcp bool) {
	t.Helper()
	for i, name := range []string{"write", "read"} {
		small, large := ops[i], ops[2+i]
		for _, op := range []moveOp{small, large} {
			windows, batches := op.st.SieveWrites+op.st.SieveReads, op.st.VectoredWrites+op.st.VectoredReads
			switch {
			case eng == ListBased && (windows == 0 || batches != 0):
				t.Errorf("%s: the %s took %d IOP windows and %d own batches; the baseline takes only IOP windows", label, name, windows, batches)
			case eng == Listless && (windows != min(dense, 1) || batches == 0):
				t.Errorf("%s: the %s took %d IOP windows and %d own batches; want %d and some", label, name, windows, batches, min(dense, 1))
			}
		}
		grown := large.by - small.by
		switch {
		case eng == ListBased && grown <= 0:
			t.Errorf("%s: the baseline's %s sent %d and %d payload bytes at the two sizes; want more for more data", label, name, small.by, large.by)
		case eng == Listless && (grown != 0 || large.msgs != small.msgs):
			t.Errorf("%s: the %s sent %d messages of %d payload bytes, and %d of %d for twice the sparse data; want the same",
				label, name, small.msgs, small.by, large.msgs, large.by)
		case eng == Listless && tcp && small.by < int64(P-1)*dense:
			t.Errorf("%s: the %s sent %d payload bytes; the dense window alone holds %d of other ranks' data", label, name, small.by, int64(P-1)*dense)
		}
	}
}
