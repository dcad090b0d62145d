package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/datatype"
	"repro/internal/fotf"
	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// A collective on views SetView proved sparse — every view compiled, its
// runs two pages apart or more, tiled — takes no plan: each rank moves its
// own data, window by window, and the ranks vote (accessEngine.planFree).
// These tests count the plans of traced worlds.

// plans is the collective plans each rank of a traced world made.
func plans(col *trace.Collector, P int) []int {
	n := make([]int, P)
	for _, ev := range col.Events() {
		if ev.Phase == trace.PhaseCollPlan {
			n[ev.Rank]++
		}
	}
	return n
}

// TestPlanFreeGapThreshold: runs two pages apart take no plan, and runs
// one byte short of that take it, on either fabric, and both leave the
// flat oracle's bytes from memory with a hole after every run.  The
// windows are several per rank, so that the ranks' staggered starts
// differ.
func TestPlanFreeGapThreshold(t *testing.T) {
	const P, n = 2, 8
	for _, c := range []struct {
		run   int64 // = the pitch: a rank's runs are (P-1)·run apart
		plans int   // per rank, for a write and a read
	}{{2 * storage.PageSize, 0}, {2*storage.PageSize - 1, 2}} {
		for _, tcp := range []bool{false, true} {
			col := trace.NewCollector(trace.DefaultBufSize)
			run := c.run
			world{P: P, tcp: tcp, trace: col, checked: true, opts: Options{collBufSize: int(3 * run)}}.roundTrip(t, access{
				view: stridedView(P, n, run, run),
				mem:  func(int) *datatype.Type { return hvecBytes(n, run, 2*run) },
				d:    n * run,
			})
			if got := plans(col, P); !slices.Equal(got, []int{c.plans, c.plans}) {
				t.Errorf("%d-byte gaps, tcp %v: the ranks made %v plans; want %d each", run, tcp, got, c.plans)
			}
		}
	}
}

// TestPlanFreeNeedsEveryView: one rank's view whose runs are a page apart
// makes every rank take the plan, though the other rank's runs are seven
// pages apart; the bytes are the flat oracle's.
func TestPlanFreeNeedsEveryView(t *testing.T) {
	const P, instances = 2, 6
	page := storage.PageSize
	ext := 8 * page
	view := func(rank int) (int64, *datatype.Type) {
		lens, displs := []int64{page}, []int64{0}
		if rank == 1 {
			lens, displs = []int64{page, page}, []int64{2 * page, 4 * page}
		}
		return 0, mustType(datatype.Resized(mustType(datatype.Hindexed(lens, displs, datatype.Byte)), 0, ext))
	}
	col := trace.NewCollector(trace.DefaultBufSize)
	world{P: P, trace: col, checked: true, opts: Options{collBufSize: int(2 * ext)}}.roundTrip(t, access{
		view: view,
		dOf:  func(rank int) int64 { return int64(rank+1) * page * instances },
	})
	if got := plans(col, P); !slices.Equal(got, []int{2, 2}) {
		t.Errorf("the ranks made %v plans; want 2 each", got)
	}
}

// TestPlanFreeEpochWrite: on a backend that commits collective writes by
// epoch, a write on sparse, disjoint views takes no plan either: every rank
// begins the epoch from the same cached views, moves its own data, and
// commits one epoch; the read takes no plan.  So also when one rank writes
// nothing, and when no rank does: then every rank commits an empty epoch.
// The bytes are the flat oracle's.
func TestPlanFreeEpochWrite(t *testing.T) {
	const P, n = 2, 8
	run := 4 * storage.PageSize
	for _, backend := range []string{"tier", "epoch-mem"} {
		for _, empty := range []string{"none", "rank 1", "all"} {
			label := fmt.Sprintf("%s, empty %s", backend, empty)
			dOf := func(rank int) int64 {
				if empty == "all" || empty == "rank 1" && rank == 1 {
					return 0
				}
				return n * run
			}
			col := trace.NewCollector(trace.DefaultBufSize)
			res := world{P: P, backend: backend, trace: col, checked: true, opts: Options{collBufSize: int(2 * run)}}.roundTrip(t, access{
				view: stridedView(P, n, run, run),
				dOf:  dOf,
			})
			if got := plans(col, P); !slices.Equal(got, []int{0, 0}) {
				t.Errorf("%s: the ranks made %v plans; want none", label, got)
			}
			for r, st := range res.perRank {
				if st.EpochsCommitted != 1 || (st.ownWrites() > 0) != (dOf(r) > 0) || st.SieveWrites+st.SieveReads != 0 {
					t.Errorf("%s: rank %d committed %d epochs in %d own batches and %d IOP windows; want 1, in own batches where it has data",
						label, r, st.EpochsCommitted, st.ownWrites(), st.SieveWrites+st.SieveReads)
				}
			}
		}
	}
}

// TestPlanFreeReadMeetingDestination: a read with no plan into a memtype
// whose bytes meet — block i of the user buffer overlaps half of block
// i+1 — leaves the later data byte at each shared offset, as the flat
// oracle's unpack in data order does.  Each run is a window of its own,
// so that a rank starting its windows anywhere but at the first would
// leave an earlier byte.
func TestPlanFreeReadMeetingDestination(t *testing.T) {
	defer testutil.LeakCheck(t)()
	const n = 8
	block := 4 * storage.PageSize
	lens, displs := make([]int64, n), make([]int64, n)
	for i := range lens {
		lens[i], displs[i] = block, int64(i)*block/2
	}
	mt := mustType(datatype.Hindexed(lens, displs, datatype.Byte))
	if p := fotf.Compile(mt); p == nil || p.Disjoint(1) {
		t.Fatal("the memtype does not compile, or compiles as disjoint")
	}
	for _, P := range []int{2, 3} {
		for _, tcp := range []bool{false, true} {
			col := trace.NewCollector(trace.DefaultBufSize)
			world{P: P, tcp: tcp, trace: col, checked: true, opts: Options{collBufSize: int(block)}}.run(t, nil, func(r rank) {
				disp, ft := stridedView(P, n, block, block)(r.p.Rank())
				if err := r.f.SetView(disp, datatype.Byte, ft); err != nil {
					panic(err)
				}
				data := pattern(r.p.Rank()+3, mt.Size())
				if _, err := r.f.WriteAtAll(0, mt.Size(), datatype.Byte, data); err != nil {
					panic(err)
				}
				want, _ := userBuf(data, mt)
				got := bytes.Repeat([]byte{0xEE}, len(want))
				if _, err := r.f.ReadAtAll(0, 1, mt, got); err != nil || !bytes.Equal(got, want) {
					panic(fmt.Sprintf("rank %d: %v, or the read differs from the in-order unpack of the data", r.p.Rank(), err))
				}
			})
			if got := plans(col, P); slices.Max(got) != 0 {
				t.Errorf("P=%d tcp %v: the ranks made %v plans; want none", P, tcp, got)
			}
		}
	}
}

// epochSignal closes began once an epoch has begun on the backend it
// wraps.
type epochSignal struct {
	*storage.Faulty
	once  sync.Once
	began chan struct{}
}

func (b *epochSignal) EpochBegin(id uint64) {
	b.Faulty.EpochBegin(id)
	b.once.Do(func() { close(b.began) })
}

// TestPlanFreeEpochAfterLaggingWrite: the ranks of one process share the
// mount, and its staging mode with it.  Rank 1 lags: it waits for an epoch
// to begin (at most a moment), then writes and reads back a run of its
// own independently, past the collective's data, before it joins a write
// without a plan that fails in rank 0's last run.  Its write reads back,
// and it is in the file after the collective is aborted, though rank 1
// cleared its buffer as soon as the write returned: no epoch began before
// rank 1 had joined, so nothing staged it.  On "tier" and "epoch-mem",
// in-process and over TCP.
func TestPlanFreeEpochAfterLaggingWrite(t *testing.T) {
	const P, n = 2, 8
	run := 4 * storage.PageSize
	d := n * run // a rank's data, its views' first tile; the tile is 2d
	for _, backend := range []string{"tier", "epoch-mem"} {
		for _, tcp := range []bool{false, true} {
			label := fmt.Sprintf("%s, tcp %v", backend, tcp)
			var sig *epochSignal
			w := world{P: P, tcp: tcp, backend: backend, checked: true, opts: Options{collBufSize: int(2 * run)},
				wrap: func(b storage.Backend) storage.Backend {
					sig = &epochSignal{Faulty: storage.NewFaulty(b), began: make(chan struct{})}
					return sig
				}}
			bg := bytes.Repeat([]byte{background}, int(4*d))
			own := pattern(7, run)
			errs := make([]error, P)
			var lagErr error
			res := w.run(t, bg, func(r rank) {
				disp, ft := stridedView(P, n, run, run)(r.p.Rank())
				if err := r.f.SetView(disp, datatype.Byte, ft); err != nil {
					panic(err)
				}
				if r.p.Rank() == 0 {
					// A view request is addressed in data bytes, a batch in
					// file bytes: either way the end of rank 0's last run.
					if backend == "tier" {
						sig.FailWriteRange(d-100, d)
					} else {
						sig.FailWriteRange(2*d-run-100, 2*d-run)
					}
				}
				r.p.Barrier()
				data := pattern(r.p.Rank()+1, d)
				if r.p.Rank() == 1 {
					select {
					case <-sig.began:
					case <-time.After(50 * time.Millisecond):
					}
					buf, got := bytes.Clone(own), make([]byte, run)
					if _, err := r.f.WriteAt(d, run, datatype.Byte, buf); err != nil {
						lagErr = err
					}
					clear(buf)
					if _, err := r.f.ReadAt(d, run, datatype.Byte, got); err != nil || !bytes.Equal(got, own) {
						lagErr = errors.Join(lagErr, err, errors.New("rank 1 does not read back its independent write"))
					}
				}
				_, errs[r.p.Rank()] = r.f.WriteAtAll(0, d, datatype.Byte, data)
			})
			if lagErr != nil {
				t.Errorf("%s: %v", label, lagErr)
			}
			requireAgreement(t, label, errs, 0, PhaseIOPWindow)
			// Rank 1's first run of the second tile: file [2d+run, 2d+2run).
			want := bytes.Clone(bg)
			copy(want[2*d+run:], own)
			if !bytes.Equal(res.file, want) {
				t.Errorf("%s: the file lost rank 1's independent write, or the aborted collective reached it", label)
			}
		}
	}
}

// heldRead holds its first read past its return, for hold: a sieve
// window's read-modify-write that stays open that long.
type heldRead struct {
	storage.Backend
	once    sync.Once
	reading chan struct{} // closed once the first read has read
	hold    time.Duration
}

func (b *heldRead) ReadAt(p []byte, off int64) (int, error) {
	n, err := b.Backend.ReadAt(p, off)
	b.once.Do(func() {
		close(b.reading)
		time.Sleep(b.hold)
	})
	return n, err
}

// TestPlanFreeWriteBesideLaggingSieve: rank 1 lags in an independent
// write whose sieve windows span rank 0's runs, and holds its first
// window open, while rank 0 enters a write without a plan on a backend
// with no epochs, so that nothing waits for rank 1 to join.  The owner
// mover holds the span of its batch in the lock table the sieve writes
// hold, so rank 0's runs land after the window's write-back and not under
// it: both ranks' bytes are in the file.
func TestPlanFreeWriteBesideLaggingSieve(t *testing.T) {
	const P, tiles = 2, 8
	g := 2 * storage.PageSize
	var held *heldRead
	w := world{P: P, opts: Options{sieveBufSize: int(2 * P * g)}, wrap: func(b storage.Backend) storage.Backend {
		held = &heldRead{Backend: b, reading: make(chan struct{}), hold: 20 * time.Millisecond}
		return held
	}}
	bg := bytes.Repeat([]byte{background}, int(P*g*tiles))
	res := w.run(t, bg, func(r rank) {
		rk := int64(r.p.Rank())
		col := mustType(datatype.Hindexed([]int64{g}, []int64{rk * g}, datatype.Byte))
		if err := r.f.SetView(0, datatype.Byte, mustType(datatype.Resized(col, 0, P*g))); err != nil {
			panic(err)
		}
		data := bytes.Repeat([]byte{byte(0x11 * (rk + 1))}, int(g*tiles))
		if rk == 1 {
			if _, err := r.f.WriteAt(0, int64(len(data)), datatype.Byte, data); err != nil {
				panic(err)
			}
			data = nil
		} else {
			<-held.reading
		}
		if _, err := r.f.WriteAtAll(0, int64(len(data)), datatype.Byte, data); err != nil {
			panic(err)
		}
	})
	for at := range bg {
		if want := byte(0x11 * (int64(at)/g%P + 1)); res.file[at] != want {
			t.Fatalf("file byte %d is %#x, want %#x", at, res.file[at], want)
		}
	}
	if res.stats.DirectWrites == 0 {
		t.Fatal("rank 0's collective took the plan")
	}
}
