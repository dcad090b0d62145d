package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/counter"
	"repro/internal/datatype"
	"repro/internal/ioserver"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// Direct windows: a collective on views whose runs SetView proved two
// pages apart or more (viewsSparse) takes no plan, and its windows have no
// window buffer and no IOP: each rank moves its own share of each between
// its user buffer and the backend by one vectored call.  The matrix below
// holds them — and the buffered windows the same geometries take under
// the list-based engine, through fileviews that decline compilation, with
// runs closer than that, or for a write over views not proved disjoint —
// to the flat oracle, over a file that already holds a background: a
// direct window writes the bytes of the views and no others.

// dwGeom is one access geometry: per-rank fileview and memory layout,
// every rank moving d data bytes, through windows of collBuf bytes.
type dwGeom struct {
	name    string
	P       int
	d       int64
	collBuf int
	view    viewFn
	mem     *datatype.Type // d must be a whole number of instances
	// direct is what the listless engine with programs must make of it,
	// as viewsSparse says: +1 every window direct, -1 every window
	// buffered.
	direct int
	// overlap: the views are not proved disjoint, so a write keeps every
	// window buffered whatever direct says.
	overlap bool
}

// oracle is the flat oracle of every rank writing its pattern of seed
// through g.
func (g dwGeom) oracle(seed int) oracle {
	data := make([][]byte, g.P)
	for rank := range data {
		data[rank] = pattern(rank+seed, g.d)
	}
	return flat(g.view, func(int) *datatype.Type { return g.mem }, 0, data)
}

// dwGeoms: run lengths on both sides of a page in the file and in
// memory, gaps on both sides of two pages, window sizes that cut runs,
// and the shapes that must keep the buffer.
func dwGeoms() []dwGeom {
	const win = 40000 // no multiple of any run or pitch below: runs straddle window edges
	return []dwGeom{
		// Runs of about a page with gaps under two pages: the window
		// buffer, and in-process the loans, move them.  At P = 2 the
		// 4097-byte runs leave gaps one byte over a page, the 8191-byte
		// runs one byte short of two.
		{name: "4095B-runs/P=2", P: 2, d: 12 * 4095, collBuf: win, view: stridedView(2, 12, 4095, 4096), mem: datatype.Byte, direct: -1},
		{name: "4096B-runs/P=2", P: 2, d: 12 * 4096, collBuf: win, view: stridedView(2, 12, 4096, 4096), mem: datatype.Byte, direct: -1},
		{name: "4097B-runs/P=3", P: 3, d: 12 * 4097, collBuf: win, view: stridedView(3, 12, 4097, 6000), mem: datatype.Byte, direct: +1},
		{name: "16K-runs/P=2", P: 2, d: 8 * 16384, collBuf: win, view: stridedView(2, 8, 16384, 16384), mem: hvecBytes(8, 16384, 32768), direct: +1},
		{name: "16K-runs/P=3", P: 3, d: 8 * 16384, collBuf: win, view: stridedView(3, 8, 16384, 16384), mem: hvecBytes(8, 16384, 32768), direct: +1},
		{name: "16K-runs-holes/P=1", P: 1, d: 8 * 16384, collBuf: win, view: stridedView(1, 8, 16384, 20000), mem: hvecBytes(8, 16384, 32768), direct: -1},
		{name: "16K-runs-2-page-holes/P=1", P: 1, d: 8 * 16384, collBuf: win, view: stridedView(1, 8, 16384, 24576), mem: hvecBytes(8, 16384, 32768), direct: +1},
		{name: "4097B-runs/P=2", P: 2, d: 12 * 4097, collBuf: win, view: stridedView(2, 12, 4097, 4097), mem: datatype.Byte, direct: -1},
		{name: "8191B-runs/P=2", P: 2, d: 12 * 8191, collBuf: win, view: stridedView(2, 12, 8191, 8191), mem: datatype.Byte, direct: -1},
		// Runs under a page, two pages apart: the gap is the rule.
		{name: "4095B-runs-2-pages-apart/P=2", P: 2, d: 12 * 4095, collBuf: win, view: stridedView(2, 12, 4095, 6144), mem: datatype.Byte, direct: +1},
		// Memory runs shorter than the file's, and the reverse; both
		// sides sparse, neither a multiple of the other.
		{name: "mem-5000B-file-16K/P=2", P: 2, d: 10 * 16000, collBuf: win, view: stridedView(2, 10, 16000, 17000), mem: hvecBytes(32, 5000, 9000), direct: +1},
		{name: "mem-12000B-file-4000B/P=3", P: 3, d: 24000, collBuf: win, view: stridedView(3, 6, 4000, 6000), mem: hvecBytes(2, 12000, 13000), direct: +1},
		// A window inside one long run: the share is contiguous.
		{name: "window-inside-run/P=2", P: 2, d: 4 * 50000, collBuf: 8192, view: stridedView(2, 4, 50000, 50000), mem: datatype.Byte, direct: +1},
		// Long file runs from a memory layout of 8-byte pieces: the rule is
		// the file's, and the own share, a list entry per piece in memory,
		// goes through a pack buffer — with gaps of two pages; with shorter
		// ones the window buffer gathers the runs.
		{name: "mem-8B-file-16K/P=1", P: 1, d: 4 * 16384, collBuf: win, view: stridedView(1, 4, 16384, 20000), mem: holeyDouble(), direct: -1},
		{name: "mem-8B-file-16K-2-page-holes/P=1", P: 1, d: 4 * 16384, collBuf: win, view: stridedView(1, 4, 16384, 24576), mem: holeyDouble(), direct: +1},
		// Short runs: the regime the window buffer exists for.
		{name: "64B-runs/P=2", P: 2, d: 512 * 64, collBuf: win, view: stridedView(2, 512, 64, 64), mem: datatype.Byte, direct: -1},
		// One AP sparse, the other dense, in the same windows: rank 0 holds
		// 8 KiB runs, rank 1 8-byte pieces in the gaps between them, 512 of
		// them to a gap.  One dense view keeps every window.
		{name: "one-dense-share/P=2", P: 2, d: 6 * 8192, collBuf: win, mem: datatype.Byte, direct: -1,
			view: func(rank int) (int64, *datatype.Type) {
				if rank == 0 {
					return 0, mustType(datatype.Resized(hvecBytes(6, 8192, 16384), 0, 6*16384))
				}
				return 8192, mustType(datatype.Resized(hvecBytes(512, 8, 16), 0, 16384))
			}},
		// Overlapping views: both ranks write the same runs, 8 KiB apart;
		// the higher rank wins, as the window path merges in rank order, so a
		// write keeps the buffer.  Each rank reads its runs itself.
		{name: "overlapping-views/P=2", P: 2, d: 6 * 8192, collBuf: win, mem: datatype.Byte, direct: +1, overlap: true,
			view: func(int) (int64, *datatype.Type) {
				return 0, mustType(datatype.Resized(hvecBytes(6, 8192, 16384), 0, 6*16384))
			}},
		// Overlapping views that leave a hole: of every 100-byte tile rank 0
		// views [0,50) and rank 1 [0,20) and [70,100).  The ranks' shares add
		// up to each window's length while nobody writes [50,70), so a window
		// that skipped its pre-read on that sum would overwrite the hole.
		{name: "overlap-with-hole/P=2", P: 2, d: 1000 * 50, collBuf: win, mem: datatype.Byte, direct: -1,
			view: func(rank int) (int64, *datatype.Type) {
				if rank == 0 {
					return 0, mustType(datatype.Resized(hvecBytes(1, 50, 50), 0, 100))
				}
				return 0, mustType(datatype.Resized(mustType(datatype.Hindexed([]int64{20, 30}, []int64{0, 70}, datatype.Byte)), 0, 100))
			}},
		// Ghosted 2-D tiles: a 2x2 grid of 16x12 tiles of 8-byte elements,
		// each grown by a ring of 6 and clipped at the dataset's edges, so the
		// subarray views of neighbours share rows and columns and one
		// collective read delivers the shared bytes to every rank that views
		// them.  A window holds four 256-byte rows, so every share in it is
		// runs with gaps between them and the window keeps its buffer.
		{name: "ghosted-tiles/P=4", P: 4, d: 22 * 18 * 8, collBuf: 1024, view: ghostedTile(16, 12, 6), mem: datatype.Byte, direct: -1},
	}
}

// ghostedTile is rank's tile of a 2x2 grid of tx by ty tiles of 8-byte
// elements in a row-major dataset, grown by ring elements on every side
// and clipped at the dataset's edges.
func ghostedTile(tx, ty, ring int64) viewFn {
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
	name     string
	w        world // P and collBufSize are the geometry's
	buffered bool  // the cell answers "window" whatever the geometry
	declined bool  // every fileview is extended by declinedType, so no rank's view compiles
}

func dwCells() []dwCell {
	return []dwCell{
		{name: "listless"},
		{name: "listless/tcp", w: world{tcp: true}},
		{name: "declined", declined: true, buffered: true},
		{name: "list-based", w: world{opts: Options{Engine: ListBased}}, buffered: true},
		{name: "listless/throttled", w: world{backend: "throttled"}},
		{name: "listless/file", w: world{backend: "file"}},
		{name: "listless/epoch-tier", w: world{backend: "tier"}},
		{name: "list-based/epoch-tier", w: world{backend: "tier", opts: Options{Engine: ListBased}}, buffered: true},
	}
}

// TestDirectWindowMatrix: every geometry in every cell against the
// oracle, and the path each must have taken in counted work — the
// windows are direct exactly when SetView proved every view sparse (the
// engine has the programs to enumerate every view, and its runs lie two
// pages apart or more) and, for a write, disjoint; a direct window is no
// IOP's (no window counted) but one backend call per rank with a share in
// it — a view request on the tier, which registers the views, a vectored
// call elsewhere — and a direct write reads nothing.  Every other window
// is an IOP's: in-process on the listless engine each rank lends its
// access to the other IOPs, and every rank's IOP moves windows of what it
// was lent with no chunk on the fabric.  On the epoch tier every rank
// commits one epoch.
func TestDirectWindowMatrix(t *testing.T) {
	defer testutil.LeakCheck(t)()
	cells := dwCells()
	if testing.Short() {
		cells = cells[:4]
	}
	for _, g := range dwGeoms() {
		for _, c := range cells {
			label := g.name + "/" + c.name
			w := c.w
			w.P, w.checked, w.opts.collBufSize = g.P, true, g.collBuf
			a := access{view: g.view, d: g.d, mem: func(int) *datatype.Type { return g.mem }}
			if c.declined {
				a.view = declinedViews(t, g.P, g.view)
			}
			res := w.roundTrip(t, a)
			s := res.stats
			if w.backend == "tier" && s.EpochsCommitted != int64(g.P) {
				t.Errorf("%s: %d epoch commits counted over %d ranks, want one each", label, s.EpochsCommitted, g.P)
			}
			for _, op := range []struct {
				name                          string
				windows, batches, segs, views int64
				direct, buffered, write       bool
			}{
				{"write", s.SieveWrites, s.ownWrites(), s.DirectWrites, s.ViewWrites, !c.buffered && g.direct > 0 && !g.overlap, c.buffered || g.direct < 0 || g.overlap, true},
				{"read", s.SieveReads, s.ownReads(), s.DirectReads, s.ViewReads, !c.buffered && g.direct > 0, c.buffered || g.direct < 0, false},
			} {
				switch {
				case op.windows+op.batches == 0:
					t.Fatalf("%s: the %s moved nothing", label, op.name)
				case op.direct && (op.windows != 0 || op.segs < op.batches-op.views):
					t.Errorf("%s: the %s took %d IOP windows and %d segments in %d own batches; want only own batches",
						label, op.name, op.windows, op.segs, op.batches)
				case op.views != 0 && (w.backend != "tier" || op.views != op.batches):
					t.Errorf("%s: %d of the %s's %d own batches are view requests; want all on the tier, none elsewhere",
						label, op.views, op.name, op.batches)
				case op.direct && op.write && res.writeReads != 0:
					t.Errorf("%s: the collective write read the backend %d times; a direct window is no read-modify-write", label, res.writeReads)
				case op.buffered && op.segs+op.batches != 0:
					t.Errorf("%s: %d segments in %d own batches of the %s where every window must take the buffer", label, op.segs, op.batches, op.name)
				}
			}
			if c.name != "listless" || g.direct > 0 || g.P == 1 {
				continue
			}
			for r, st := range res.perRank {
				if st.SieveWrites == 0 || st.SieveReads == 0 {
					t.Errorf("%s: rank %d's IOP moved %d write and %d read windows; want some of each", label, r, st.SieveWrites, st.SieveReads)
				}
			}
			if cm := res.comm; cm.Refs == 0 || cm.Bytes >= g.d {
				t.Errorf("%s: %d loans and %d payload bytes; want the shares lent, not sent", label, cm.Refs, cm.Bytes)
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
// direct windows go out as view requests — the tier registers the views —
// and stage under the collective's epoch, from their pack buffers, as a
// buffered window's write-back does.  A commit publishes them; a
// collective that fails in the ranks' last batches aborts the epoch, and
// the batches already staged never show; a commit that must be retried
// (ErrEpochRetry) re-seals and commits the same staged batches.
// In-process at P = 2 and over TCP at P = 3.
func TestDirectWindowEpochs(t *testing.T) {
	defer testutil.LeakCheck(t)()
	for _, g := range dwGeoms()[3:5] { // 16 KiB runs, non-contiguous memory, P = 2 and 3
		for _, outcome := range []string{"commit", "abort", "retry"} {
			label := fmt.Sprintf("%s/%s", g.name, outcome)
			o := g.oracle(11)
			var fb *storage.Faulty
			w := world{P: g.P, tcp: g.P > 2, backend: "tier", checked: true, opts: Options{collBufSize: g.collBuf}, wrap: func(b storage.Backend) storage.Backend {
				switch outcome {
				case "abort":
					fb = storage.NewFaulty(b)
					return fb
				case "retry":
					return &retryOnceTier{Striped: b.(*ioserver.Striped)}
				}
				return b
			}}
			errs := make([]error, g.P)
			res := w.run(t, bytes.Repeat([]byte{background}, len(o.file)), func(r rank) {
				disp, ft := g.view(r.p.Rank())
				if err := r.f.SetView(disp, datatype.Byte, ft); err != nil {
					panic(err)
				}
				if fb != nil && r.p.Rank() == 0 {
					// A view request's offset is a data offset: the last data
					// bytes of the views, which every rank moves last of its own.
					fb.FailWriteRange(g.d-100, g.d)
				}
				r.p.Barrier()
				_, errs[r.p.Rank()] = r.f.WriteAtAll(0, o.count[r.p.Rank()], g.mem, o.bufs[r.p.Rank()])
				if msg := keepsNoBuffer(r.f); msg != "" {
					panic(fmt.Sprintf("rank %d: %s after the write", r.p.Rank(), msg))
				}
			})
			st := res.perRank[0]
			if st.SieveWrites != 0 || st.ViewWrites == 0 || st.VectoredWrites != 0 {
				t.Errorf("%s: %d IOP windows, %d view requests and %d offset lists of its own; want only view requests",
					label, st.SieveWrites, st.ViewWrites, st.VectoredWrites)
			}
			want := o.file
			if outcome == "abort" {
				requireAgreement(t, label, errs, 0, PhaseIOPWindow) // every rank fails, and the lowest wins the vote
				want = bytes.Repeat([]byte{background}, len(o.file))
			} else if err := errors.Join(errs...); err != nil {
				t.Fatalf("%s: %v", label, err)
			} else if wantRetries := map[string]int64{"commit": 0, "retry": 1}[outcome]; st.EpochRetries != wantRetries || st.EpochsCommitted != 1 {
				t.Errorf("%s: %d epochs committed after %d retries, want 1 after %d", label, st.EpochsCommitted, st.EpochRetries, wantRetries)
			}
			if !bytes.Equal(res.file, want) {
				t.Errorf("%s: the file differs from the oracle, or a failed collective's staged batches reached it", label)
			}
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
		o := g.oracle(0)
		for _, arm := range []string{"range", "count"} {
			for _, op := range []string{"write", "read"} {
				for _, tcp := range []bool{false, true} {
					label := fmt.Sprintf("%s/%s/%s/tcp=%v", g.name, arm, op, tcp)
					checkLeaks := testutil.LeakCheck(t)
					failRank := map[string]int{"range": g.P - 1, "count": 1}[arm]
					errs := make([]error, g.P)
					world{P: g.P, tcp: tcp, backend: "faulty", checked: true, opts: Options{collBufSize: g.collBuf}}.run(t, o.file, func(r rank) {
						disp, ft := g.view(r.p.Rank())
						if err := r.f.SetView(disp, datatype.Byte, ft); err != nil {
							panic(err)
						}
						buf, count := bytes.Clone(o.bufs[r.p.Rank()]), o.count[r.p.Rank()]
						if _, err := r.f.WriteAtAll(0, count, g.mem, buf); err != nil {
							panic(err)
						}
						if r.f.Stats.SieveWrites != 0 || r.f.Stats.VectoredWrites < 3 {
							panic("the geometry did not take direct windows")
						}
						r.p.Barrier()
						if end := int64(len(o.file)) - 777; r.p.Rank() == failRank {
							switch {
							case arm == "range" && op == "write":
								r.fb.FailWriteRange(end-100, end)
							case arm == "range":
								r.fb.FailReadRange(end-100, end)
							case op == "write":
								r.fb.FailWrites(3) // every rank has more direct windows than that
							default:
								r.fb.FailReads(3)
							}
						}
						r.p.Barrier()
						if op == "write" {
							_, errs[r.p.Rank()] = r.f.WriteAtAll(0, count, g.mem, buf)
							copy(buf, o.bufs[(r.p.Rank()+1)%g.P])
						} else {
							dst := make([]byte, len(buf))
							_, errs[r.p.Rank()] = r.f.ReadAtAll(0, count, g.mem, dst)
							clear(dst)
						}
						if msg := keepsNoBuffer(r.f); msg != "" {
							panic(fmt.Sprintf("rank %d: %s after the failed collective", r.p.Rank(), msg))
						}
						r.p.Barrier()
						r.fb.Heal()
						r.p.Barrier()
						got := bytes.Repeat([]byte{0xEE}, len(buf))
						if _, err := r.f.WriteAtAll(0, count, g.mem, buf); err != nil {
							panic(fmt.Sprintf("post-heal write: %v", err))
						}
						if _, err := r.f.ReadAtAll(0, count, g.mem, got); err != nil || !bytes.Equal(got, buf) {
							panic(fmt.Sprintf("post-heal round trip: %v, or it differs", err))
						}
					})
					requireAgreement(t, label, errs, failRank, PhaseIOPWindow)
					checkLeaks()
				}
			}
		}
	}
}

// TestDirectWindowsMoveNoData pins the direct-window rule in counted work.
// Each rank views 16 KiB runs, interleaved with the other ranks', after
// (layout "one-dense") a first window of 64-byte runs, interleaved too,
// which is page-dense.  Rank 0 moves its data from memory of 8-byte
// pieces, the others from contiguous memory, so that a rule that read a
// rank's own memory would not give every rank the same answer.  Over the
// loopback and over TCP, on Mem and on a two-server tier with epochs, at
// P = 2 and P = 3, a write and a read of n runs and of 2n runs per rank:
//   - on the listless engine, views all of 16 KiB runs are sparse: no
//     window is an IOP's, every rank moves its own share of each itself,
//     and the rank fabric carries the same messages and payload bytes at
//     both sizes, none per byte of data — the vote and the epoch's rounds;
//   - views with the dense window are not: every window is an IOP's,
//     in-process the loans move the other ranks' shares with the same
//     messages and payload at both sizes, and over TCP the payload grows
//     with the data;
//   - the list-based engine is unchanged: every window is an IOP's, and
//     the payload grows with the data;
//   - every file and every read is the flat oracle's.
func TestDirectWindowsMoveNoData(t *testing.T) {
	defer testutil.LeakCheck(t)()
	const run, piece, k = 16384, 64, 256 // the dense window holds k pieces per rank
	mem := func(rank int) *datatype.Type {
		if rank == 0 {
			return holeyDouble()
		}
		return datatype.Byte
	}
	for _, P := range []int{2, 3} {
		win := k * piece * int64(P)
		for _, layout := range []string{"all-sparse", "one-dense"} {
			dense := int64(0) // data bytes per rank in the dense window
			if layout == "one-dense" {
				dense = k * piece
			}
			view := func(rank int) (int64, *datatype.Type) {
				sparse := hvecBytes(16, run, int64(P)*run)
				if layout == "all-sparse" {
					at := mustType(datatype.Hindexed([]int64{1}, []int64{int64(rank) * run}, sparse))
					return 0, mustType(datatype.Resized(at, 0, 16*int64(P)*run))
				}
				both := mustType(datatype.Struct([]int64{1, 1}, []int64{int64(rank) * piece, win + int64(rank)*run},
					[]*datatype.Type{hvecBytes(k, piece, int64(P)*piece), sparse}))
				return 0, mustType(datatype.Resized(both, 0, win+16*int64(P)*run))
			}
			var oracles [2]oracle // of n and of 2n runs per rank
			for i, d := range []int64{dense + 4*run, dense + 8*run} {
				data := make([][]byte, P)
				for r := range data {
					data[r] = pattern(10*i+r, d)
				}
				oracles[i] = flat(view, mem, 0, data)
			}
			// Over the background of the larger write, which the smaller leaves.
			bg := oracles[1].file
			want0 := append(bytes.Clone(oracles[0].file), bytes.Repeat([]byte{background}, len(bg)-len(oracles[0].file))...)
			for _, tcp := range []bool{false, true} {
				for _, backend := range []string{"mem", "tier"} {
					for _, eng := range engines {
						label := fmt.Sprintf("P=%d/%s/tcp=%v/tier=%v/%v", P, layout, tcp, backend == "tier", eng)
						type moveOp struct {
							st       Stats
							msgs, by int64
						}
						var ops [4]moveOp // write n, read n, write 2n, read 2n, summed over the ranks
						var mu sync.Mutex
						world{P: P, tcp: tcp, backend: backend, checked: true, opts: Options{Engine: eng, collBufSize: int(win)}}.run(t, bytes.Repeat([]byte{background}, len(bg)), func(r rank) {
							rk := r.p.Rank()
							disp, ft := view(rk)
							if err := r.f.SetView(disp, datatype.Byte, ft); err != nil {
								panic(err)
							}
							for i, o := range oracles {
								got := bytes.Repeat([]byte{0xEE}, len(o.bufs[rk]))
								for j, write := range []bool{true, false} {
									r.p.Barrier()
									s0, st0 := r.p.SentStats(), r.f.Stats
									var err error
									if write {
										_, err = r.f.WriteAtAll(0, o.count[rk], mem(rk), o.bufs[rk])
									} else {
										_, err = r.f.ReadAtAll(0, o.count[rk], mem(rk), got)
									}
									if err != nil {
										panic(err)
									}
									s1 := r.p.SentStats()
									mu.Lock()
									op := &ops[2*i+j]
									counter.Add(&op.st, r.f.Stats.Sub(st0))
									op.msgs, op.by = op.msgs+s1.Messages-s0.Messages, op.by+s1.Bytes-s0.Bytes
									mu.Unlock()
								}
								r.p.Barrier()
								if want := [][]byte{want0, bg}[i]; rk == 0 && !bytes.Equal(flattenBackend(t, r.f.sh.b), want) {
									panic(fmt.Sprintf("write %d: the file differs from the oracle", i))
								}
								if !bytes.Equal(got, o.reads[rk]) {
									panic(fmt.Sprintf("rank %d: read %d differs from the oracle", rk, i))
								}
								if msg := keepsNoBuffer(r.f); msg != "" {
									panic(fmt.Sprintf("rank %d: %s", rk, msg))
								}
							}
						})
						owners := eng == Listless && dense == 0 // SetView proved the views sparse
						for i, name := range []string{"write", "read"} {
							small, large := ops[i], ops[2+i]
							for _, op := range []moveOp{small, large} {
								windows, batches := op.st.SieveWrites+op.st.SieveReads, op.st.ownWrites()+op.st.ownReads()
								switch {
								case !owners && (windows == 0 || batches != 0):
									t.Errorf("%s: the %s took %d IOP windows and %d own batches; want only IOP windows", label, name, windows, batches)
								case owners && (windows != 0 || batches == 0):
									t.Errorf("%s: the %s took %d IOP windows and %d own batches; want only own batches", label, name, windows, batches)
								}
							}
							switch grown := large.by - small.by; {
							case (eng == ListBased || tcp) && !owners && grown <= 0:
								t.Errorf("%s: the %s sent %d and %d payload bytes at the two sizes; want more for more data", label, name, small.by, large.by)
							case (owners || eng == Listless && !tcp) && (grown != 0 || large.msgs != small.msgs):
								t.Errorf("%s: the %s sent %d messages of %d payload bytes, and %d of %d for twice the sparse data; want the same",
									label, name, small.msgs, small.by, large.msgs, large.by)
							case eng == Listless && tcp && small.by < int64(P-1)*dense:
								t.Errorf("%s: the %s sent %d payload bytes; the dense window alone holds %d of other ranks' data", label, name, small.by, int64(P-1)*dense)
							}
						}
					}
				}
			}
		}
	}
}
