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
// page or more move chunk ↔ backend by one vectored call, without the
// window buffer.  The matrix below holds them — and the buffered windows
// the same geometries take under the list-based engine, through fileviews
// that decline compilation, or with one dense share — to a flat oracle
// computed from the datatypes' Walk alone, over a file that already holds
// a background: a direct window writes the bytes of the views and no
// others.

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
}

func mustType(dt *datatype.Type, err error) *datatype.Type {
	if err != nil {
		panic(err)
	}
	return dt
}

// stridedView is rank's share of runs of run bytes, the ranks' runs
// pitch bytes apart and each rank's own P*pitch apart: interleaved, with
// a hole after every run when run < pitch.
func stridedView(P int, n, run, pitch int64) func(int) (int64, *datatype.Type) {
	return func(rank int) (int64, *datatype.Type) {
		vec := mustType(datatype.Hvector(n, run, int64(P)*pitch, datatype.Byte))
		return int64(rank) * pitch, mustType(datatype.Resized(vec, 0, n*int64(P)*pitch))
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
		{name: "16K-runs-holes/P=1", P: 1, d: 8 * 16384, collBuf: win, view: stridedView(1, 8, 16384, 20000), mem: hvecBytes(8, 16384, 32768), direct: +1},
		// Memory runs shorter than the file's, and the reverse; both
		// sides sparse, neither a multiple of the other.
		{name: "mem-5000B-file-16K/P=2", P: 2, d: 10 * 16000, collBuf: win, view: stridedView(2, 10, 16000, 17000), mem: hvecBytes(32, 5000, 9000), direct: +1},
		{name: "mem-12000B-file-4000B/P=3", P: 3, d: 24000, collBuf: win, view: stridedView(3, 6, 4000, 6000), mem: hvecBytes(2, 12000, 13000), direct: +1},
		// A window inside one long run: the share is contiguous.
		{name: "window-inside-run/P=2", P: 2, d: 4 * 50000, collBuf: 8192, view: stridedView(2, 4, 50000, 50000), mem: datatype.Byte, direct: +1},
		// Long file runs from a memory layout of 8-byte pieces: the own
		// share would be a list entry per piece, so it keeps the buffer.
		{name: "mem-8B-file-16K/P=1", P: 1, d: 4 * 16384, collBuf: win, view: stridedView(1, 4, 16384, 20000), mem: mustType(datatype.Resized(datatype.Double, 0, 16)), direct: -1},
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
	// wins, as the window path merges in rank order.
	gs = append(gs, dwGeom{name: "overlapping-views/P=2", P: 2, d: 6 * 8192, collBuf: win, mem: datatype.Byte, direct: +1,
		view: func(int) (int64, *datatype.Type) {
			return 0, mustType(datatype.Resized(hvecBytes(6, 8192, 16384), 0, 6*16384))
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
		{name: "no-view-cache", opts: Options{DisableViewCache: true}, backend: memBackend},
		{name: "no-merge-check", opts: Options{DisableMergeCheck: true}, backend: memBackend},
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
		if !bytes.Equal(buf, orig) || len(f.lent) != 0 || !allNil(f.lent[:cap(f.lent)]) {
			// A slice lent to an IOP that reached the checked pool would
			// have been poisoned.
			panic(fmt.Sprintf("rank %d: the write changed its user buffer, or the handle still references %d lent slices", p.Rank(), len(f.lent)))
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
		for i := range f.batch {
			if b := &f.batch[i]; len(b.segs) != 0 || !allNil(b.chunks) {
				panic(fmt.Sprintf("rank %d: slot %d keeps %d segments and chunks %v after the collectives", p.Rank(), i, len(b.segs), b.chunks))
			}
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
// is direct exactly when no share in it is page-dense and the engine has
// the programs to enumerate it; a direct write window is one vectored
// call, reads nothing and counts as a skipped pre-read.
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
			if s.SieveWrites == 0 || s.SieveReads == 0 {
				t.Fatalf("%s: no windows were processed", label)
			}
			switch {
			case c.buffered || g.direct < 0:
				if s.DirectWrites+s.DirectReads+s.VectoredWrites+s.VectoredReads != 0 {
					t.Errorf("%s: %d direct writes, %d direct reads where every window must take the buffer", label, s.DirectWrites, s.DirectReads)
				}
			case g.direct > 0:
				if s.VectoredWrites != s.SieveWrites || s.VectoredReads != s.SieveReads || s.PreReadsSkipped != s.SieveWrites {
					t.Errorf("%s: of %d/%d write/read windows %d/%d were one vectored call and %d writes skipped the pre-read; want all",
						label, s.SieveWrites, s.SieveReads, s.VectoredWrites, s.VectoredReads, s.PreReadsSkipped)
				}
				if s.DirectWrites < s.VectoredWrites || s.DirectReads < s.VectoredReads {
					t.Errorf("%s: %d/%d segments in %d/%d batches", label, s.DirectWrites, s.DirectReads, s.VectoredWrites, s.VectoredReads)
				}
				if writeReads != 0 {
					t.Errorf("%s: the collective write read the backend %d times; a direct window is no read-modify-write", label, writeReads)
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

// TestDirectWindowEpochs: on the epoch tier a direct window's vectored
// write-back stages under the collective's epoch like a buffered one.  A
// commit publishes it; a collective that fails in a later window aborts
// the epoch and the windows already staged never show; a commit that
// must be retried (ErrEpochRetry) re-seals and commits the same staged
// batches.
func TestDirectWindowEpochs(t *testing.T) {
	defer testutil.LeakCheck(t)()
	g := dwGeoms()[3] // 16 KiB runs, P=2, non-contiguous memory
	if g.direct <= 0 {
		t.Fatal("geometry is not a direct one")
	}
	count := g.d / g.mem.Size()
	data, bufs := make([][]byte, g.P), make([][]byte, g.P)
	for rank := range data {
		data[rank] = pattern(rank+11, g.d)
		bufs[rank] = make([]byte, (count-1)*g.mem.Extent()+g.mem.TrueUB())
		fotf.UnpackCount(bufs[rank], data[rank], count, g.mem, 0)
	}
	want, _ := dwOracle(g, data)
	background := bytes.Repeat([]byte{dwBackground}, len(want))

	for _, outcome := range []string{"commit", "abort", "retry"} {
		tier, stop := ioServerTier(t, 4096, 2)
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
		errs := make([]error, g.P)
		var st Stats
		_, err := mpi.RunWithOptions(g.P, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
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
				// The last window of IOP 1's domain: everything before it
				// is staged by the time it fails.
				fb.FailWriteRange(int64(len(want))-777-100, int64(len(want)))
			}
			p.Barrier()
			_, errs[p.Rank()] = f.WriteAtAll(0, count, g.mem, bufs[p.Rank()])
			if p.Rank() == 0 {
				st = f.Stats
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", outcome, err)
		}
		got := flattenBackend(t, tier)
		stop()
		if st.DirectWrites == 0 || st.VectoredWrites != st.SieveWrites {
			t.Errorf("%s: %d of %d windows were direct", outcome, st.VectoredWrites, st.SieveWrites)
		}
		switch outcome {
		case "abort":
			requireAgreement(t, outcome, errs, 1, PhaseIOPWindow)
			if !bytes.Equal(got, background) {
				t.Errorf("abort: staged direct windows of a failed collective reached the file")
			}
		default:
			for r, e := range errs {
				if e != nil {
					t.Fatalf("%s: rank %d: %v", outcome, r, e)
				}
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: committed file differs from the oracle", outcome)
			}
			if wantRetries := map[string]int64{"commit": 0, "retry": 1}[outcome]; st.EpochRetries != wantRetries || st.EpochsCommitted != 1 {
				t.Errorf("%s: %d epochs committed after %d retries, want 1 after %d", outcome, st.EpochsCommitted, st.EpochRetries, wantRetries)
			}
		}
	}
}

// TestDirectWindowFaults: a vectored write and a vectored read that fail
// in a direct window — armed by range, in IOP 1's domain, and by count,
// which IOP 0 trips — end in the same CollectiveError on every rank, no
// chunk left in a slot's batch (checked pool: none returned twice
// either), no goroutine left, and a handle whose next collective works,
// in-process and over TCP.  The write's remote shares are lent, and the
// failed write returns with its loan ended: every rank rewrites its
// buffer at once, which under -race no goroutine of the collective may
// still be reading.
func TestDirectWindowFaults(t *testing.T) {
	g := dwGeoms()[3]
	count := g.d / g.mem.Size()
	for _, arm := range []string{"range", "count"} {
		for _, op := range []string{"write", "read"} {
			for _, tcp := range []bool{false, true} {
				testDirectWindowFault(t, g, count, arm, op, tcp)
			}
		}
	}
}

func testDirectWindowFault(t *testing.T, g dwGeom, count int64, arm, op string, tcp bool) {
	label := fmt.Sprintf("%s/%s/tcp=%v", arm, op, tcp)
	checkLeaks := testutil.LeakCheck(t)
	fb := storage.NewFaulty(storage.NewMem())
	sh := NewShared(fb)
	errs := make([]error, g.P)
	failRank := 0
	eps := transport.NewLoopback(g.P)
	if tcp {
		var err error
		if eps, err = transport.NewLocalTCPWorld(g.P, transport.TCPConfig{}); err != nil {
			t.Fatal(err)
		}
	}
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
		buf := make([]byte, (count-1)*g.mem.Extent()+g.mem.TrueUB())
		fotf.UnpackCount(buf, pattern(p.Rank(), g.d), count, g.mem, 0)
		if _, err := f.WriteAtAll(0, count, g.mem, buf); err != nil {
			panic(err)
		}
		if f.Stats.DirectWrites == 0 {
			panic("the geometry did not take direct windows")
		}
		if p.Rank() == 0 {
			size := fb.Size()
			switch {
			case arm == "range" && op == "write":
				fb.FailWriteRange(size-100, size)
			case arm == "range":
				fb.FailReadRange(size-100, size)
			case op == "write":
				fb.FailWrites(3) // both IOPs have more than three windows
			default:
				fb.FailReads(3)
			}
		}
		p.Barrier()
		if op == "write" {
			_, errs[p.Rank()] = f.WriteAtAll(0, count, g.mem, buf)
			fotf.UnpackCount(buf, pattern(p.Rank()+7, g.d), count, g.mem, 0)
		} else {
			_, errs[p.Rank()] = f.ReadAtAll(0, count, g.mem, make([]byte, len(buf)))
		}
		for i := range f.batch {
			if b := &f.batch[i]; len(b.segs) != 0 || !allNil(b.chunks) {
				panic(fmt.Sprintf("rank %d: slot %d keeps %d segments, chunks %v after the failed collective", p.Rank(), i, len(b.segs), b.chunks))
			}
			for _, sg := range f.batch[i].segs[:cap(f.batch[i].segs)] {
				if sg.Buf != nil {
					panic("a kept segment still references a buffer of the failed collective")
				}
			}
		}
		p.Barrier()
		if p.Rank() == 0 {
			fb.Heal()
		}
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
	if arm == "range" {
		failRank = 1
	}
	requireAgreement(t, label, errs, failRank, PhaseIOPWindow)
	for _, e := range errs {
		if !errors.Is(e, storage.ErrPermanent) {
			t.Errorf("%s: %v lost its classification", label, e)
		}
	}
	checkLeaks()
}
