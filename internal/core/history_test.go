package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/datatype"
	"repro/internal/storage"
)

// Random mixed histories held to MPI-IO's promises.  Every rank of a world
// runs its own sequence of independent accesses, at its own pace, between
// the collectives every rank calls in the same order.  The file is cut
// into columns, g bytes of each P·g-byte tile per rank, and every view a
// rank sets covers bytes of its own column only: no two ranks' accesses
// conflict, so MPI-3.1 §13.6 defines the outcome of every history, and a
// sequential model per rank holds it — the rank's own writes in its
// program order.  The checks:
//
//   - a rank reads back its own acknowledged independent write;
//   - after a successful collective, every rank reads its bytes;
//   - every rank returns the same verdict from each collective;
//   - a failed collective on an epoch backend leaves its range at the
//     last committed state (elsewhere its range is undefined afterwards,
//     and so is that of an independent write that failed).
//
// A write's buffer is scribbled on as soon as the call returns, which
// MPI allows, so that a backend still holding it shows.

// histOp is one step of a rank's history.
type histOp int

const (
	histSetView histOp = iota
	histWrite
	histRead
	histWriteAll
	histReadAll
)

func (o histOp) collective() bool { return o == histSetView || o == histWriteAll || o == histReadAll }

func (o histOp) write() bool { return o == histWrite || o == histWriteAll }

func (o histOp) String() string {
	return [...]string{"SetView", "WriteAt", "ReadAt", "WriteAtAll", "ReadAtAll"}[o]
}

// histStep is one call of one rank.
type histStep struct {
	op    histOp
	delay time.Duration  // slept before the call
	ft    *datatype.Type // SetView's filetype
	off   int64          // view data offset, in bytes (the etype is Byte)
	data  []byte         // a write's bytes; a read's length
	holey bool           // memory is every other byte, else contiguous
	fault int64          // rank 0 of a WriteAtAll: arm FailWrites(fault) for the call
}

// history is every rank's steps; the collectives come in the same order
// on every rank.
type history struct {
	g      int64 // column width
	fileSz int64 // every access lies below it
	steps  [][]histStep
}

// newHistory draws a history of P ranks from seed.
func newHistory(seed int64, P int) history {
	rng := rand.New(rand.NewSource(seed))
	// Columns of 8 KiB keep every view two pages sparse at P >= 2, 4 KiB
	// at P >= 3; 512 B never.  A second run in the column is dense.
	h := history{g: []int64{512, 4096, 8192}[rng.Intn(3)]}
	T := int64(P) * h.g
	h.fileSz = 4*4*T + T
	h.steps = make([][]histStep, P)
	sizes := make([]int64, P) // view data bytes per extent, by rank
	delay := func() time.Duration {
		if rng.Intn(2) == 0 {
			return 0
		}
		return time.Duration(rng.Int63n(int64(1500 * time.Microsecond)))
	}
	access := func(r int, op histOp) histStep {
		s := histStep{op: op, delay: delay(), holey: rng.Intn(3) == 0}
		s.off = rng.Int63n(2*sizes[r] + 1)
		n := rng.Int63n(2*sizes[r] + 1)
		if !op.collective() && n == 0 {
			n = 1
		}
		s.data = make([]byte, n)
		if op.write() {
			rng.Read(s.data)
		}
		return s
	}
	colls := 4 + rng.Intn(5)
	for c := 0; c < colls; c++ {
		op := histSetView
		if c > 0 {
			op = []histOp{histSetView, histWriteAll, histWriteAll, histReadAll}[rng.Intn(4)]
		}
		k := 1 + rng.Int63n(3)
		skew := rng.Intn(4) == 0 // extents differ by rank: not proved disjoint
		for r := 0; r < P; r++ {
			for i := rng.Intn(3); i > 0 && c > 0; i-- {
				h.steps[r] = append(h.steps[r], access(r, []histOp{histWrite, histWrite, histRead}[rng.Intn(3)]))
			}
			var s histStep
			switch op {
			case histSetView:
				kr := k
				if skew {
					kr += int64(r % 2)
				}
				s = histStep{op: op, delay: delay()}
				s.ft, sizes[r] = columnView(rng, P, r, h.g, kr)
			default:
				s = access(r, op)
				if op == histWriteAll && r == 0 && rng.Intn(4) == 0 {
					s.fault = 1 + rng.Int63n(4)
				}
			}
			h.steps[r] = append(h.steps[r], s)
		}
	}
	for r := 0; r < P; r++ { // every rank reads its last view back
		s := access(r, histRead)
		s.off, s.data = 0, make([]byte, 2*sizes[r])
		h.steps[r] = append(h.steps[r], s)
	}
	return h
}

// columnView is rank r's view of kr tiles: one or two runs inside its
// column of each tile, and the view's data bytes per extent.
func columnView(rng *rand.Rand, P, r int, g, kr int64) (*datatype.Type, int64) {
	cuts := make([]int64, 2+2*rng.Intn(2))
	for i := range cuts {
		cuts[i] = rng.Int63n(g + 1)
	}
	slices.Sort(cuts)
	var lens, displs []int64
	var size int64
	for i := 0; i < len(cuts); i += 2 {
		if cuts[i] < cuts[i+1] {
			lens, displs = append(lens, cuts[i+1]-cuts[i]), append(displs, int64(r)*g+cuts[i])
			size += cuts[i+1] - cuts[i]
		}
	}
	if size == 0 {
		lens, displs, size = []int64{1}, []int64{int64(r)*g + min(cuts[0], g-1)}, 1
	}
	T := int64(P) * g
	col := mustType(datatype.Hindexed(lens, displs, datatype.Byte))
	tiles := mustType(datatype.Hvector(kr, 1, T, col))
	return mustType(datatype.Resized(tiles, 0, kr*T)), kr * size
}

// holeyMem lays one data byte in every two of memory.
var holeyMem = mustType(datatype.Resized(datatype.Byte, 0, 2))

// histModel is one rank's sequential model of the file: what its column
// must hold, and which bytes are undefined.
type histModel struct {
	file    []byte
	unknown []bool
}

// apply writes data over the pieces of view ft from data offset off, or
// marks them undefined.
func (m *histModel) apply(ft *datatype.Type, off int64, data []byte, defined bool) {
	places(0, ft, off, off+int64(len(data)), func(at, x, n int64) {
		copy(m.file[at:at+n], data[x-off:x-off+n])
		for i := at; i < at+n; i++ {
			m.unknown[i] = !defined
		}
	})
}

// check compares what a read returned with the model, byte for byte where
// the model knows, and describes the first difference.
func (m *histModel) check(ft *datatype.Type, off int64, got []byte) string {
	msg := ""
	places(0, ft, off, off+int64(len(got)), func(at, x, n int64) {
		for i := int64(0); i < n && msg == ""; i++ {
			if b := got[x-off+i]; !m.unknown[at+i] && b != m.file[at+i] {
				msg = fmt.Sprintf("data byte %d (file byte %d) reads %#x, want %#x", x+i, at+i, b, m.file[at+i])
			}
		}
	})
	return msg
}

// runHistory runs h in world w and holds it to the model.
func runHistory(t *testing.T, w world, h history, epochs bool) {
	t.Helper()
	P := len(h.steps)
	var fb *storage.Faulty
	w.wrap = func(b storage.Backend) storage.Backend {
		fb = storage.NewFaulty(b)
		return fb
	}
	bg := bytes.Repeat([]byte{background}, int(h.fileSz))
	models := make([]histModel, P)
	faults := false
	for r := range models {
		models[r] = histModel{file: bytes.Clone(bg), unknown: make([]bool, len(bg))}
		for _, s := range h.steps[r] {
			faults = faults || s.fault > 0
		}
	}
	verdicts := make([][]error, P) // each rank's collective errors, in order
	fails := make([]string, P)
	res := w.run(t, bg, func(rk rank) {
		r, f := rk.p.Rank(), rk.f
		m := &models[r]
		var ft *datatype.Type
		for i, s := range h.steps[r] {
			if fails[r] != "" {
				// A rank stops checking at its first failure, but still
				// calls the collectives, so that the others finish.
				if !s.op.collective() {
					continue
				}
			}
			time.Sleep(s.delay)
			mt, count := datatype.Byte, int64(len(s.data))
			if s.holey {
				mt = holeyMem
			}
			var buf []byte
			if s.op.write() {
				buf, _ = userBuf(s.data, nil)
				if s.holey {
					buf, _ = userBuf(s.data, holeyMem)
				}
			} else if s.op != histSetView {
				buf = bytes.Repeat([]byte{0xEE}, int(max(2*count-1, 0)))
				if !s.holey {
					buf = buf[:count]
				}
			}
			var err error
			switch s.op {
			case histSetView:
				err = f.SetView(0, datatype.Byte, s.ft)
				if err == nil {
					ft = s.ft
				}
			case histWrite:
				_, err = f.WriteAt(s.off, count, mt, buf)
			case histRead:
				_, err = f.ReadAt(s.off, count, mt, buf)
			case histWriteAll:
				if s.fault > 0 {
					fb.FailWrites(s.fault)
				}
				_, err = f.WriteAtAll(s.off, count, mt, buf)
				if s.fault > 0 {
					fb.Heal()
				}
			case histReadAll:
				_, err = f.ReadAtAll(s.off, count, mt, buf)
			}
			if s.op.collective() {
				verdicts[r] = append(verdicts[r], err)
			}
			if fails[r] != "" {
				continue
			}
			step := fmt.Sprintf("rank %d step %d (%s at %d, %d bytes, holey %v)", r, i, s.op, s.off, len(s.data), s.holey)
			switch {
			case s.op.write():
				clear(buf) // MPI gives the buffer back at return
				var ce *CollectiveError
				if err != nil && (!faults || !errors.Is(err, storage.ErrInjected) && !errors.As(err, &ce)) {
					fails[r] = fmt.Sprintf("%s: %v", step, err)
				}
				// A failed collective write on an epoch backend is undone;
				// any other failed write leaves its range undefined.
				if err == nil || !epochs || s.op == histWrite {
					m.apply(ft, s.off, s.data, err == nil)
				}
			case err != nil:
				fails[r] = fmt.Sprintf("%s: %v", step, err)
			case s.op != histSetView:
				got := make([]byte, count)
				if s.holey {
					places(0, holeyMem, 0, count, func(at, x, n int64) { copy(got[x:x+n], buf[at:at+n]) })
					if want, _ := userBuf(got, holeyMem); !bytes.Equal(buf, want) {
						fails[r] = step + ": the read touched a hole of the user buffer"
						continue
					}
				} else {
					got = buf
				}
				if msg := m.check(ft, s.off, got); msg != "" {
					fails[r] = step + ": " + msg
				}
			}
		}
	})
	for _, msg := range fails {
		if msg != "" {
			t.Errorf("%s", msg)
		}
	}
	for c := range verdicts[0] {
		e0 := verdicts[0][c]
		var c0 *CollectiveError
		errors.As(e0, &c0)
		for r := 1; r < P; r++ {
			e := verdicts[r][c]
			var ce *CollectiveError
			errors.As(e, &ce)
			if (e0 == nil) != (e == nil) || e0 != nil && (c0 == nil || ce == nil || ce.Rank != c0.Rank || ce.Phase != c0.Phase) {
				t.Errorf("collective %d: rank 0 returned %v, rank %d %v", c, e0, r, e)
			}
		}
	}
	if len(res.file) < len(bg) {
		t.Fatalf("the file is %d bytes, want %d", len(res.file), len(bg))
	}
	col := func(at int64) int { return int(at / h.g % int64(P)) }
	for at := range bg {
		m := &models[col(int64(at))]
		if !m.unknown[at] && res.file[at] != m.file[at] {
			t.Fatalf("file byte %d (rank %d's column) is %#x, want %#x", at, col(int64(at)), res.file[at], m.file[at])
		}
	}
}

// TestQuickMixedHistories runs random mixed histories (see runHistory) on
// a memory backend, on one that commits collective writes by epoch and on
// the two-server tier, with both engines, at P = 2 and 3, in-process.
func TestQuickMixedHistories(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	for _, backend := range []string{"mem", "epoch-mem", "tier"} {
		for _, eng := range engines {
			for _, P := range []int{2, 3} {
				t.Run(fmt.Sprintf("%s/%s/P=%d", backend, eng, P), func(t *testing.T) {
					t.Parallel()
					for s := 0; s < seeds; s++ {
						seed := int64(1000*P + s)
						w := world{P: P, backend: backend, checked: true,
							opts: Options{Engine: eng, collBufSize: 8 << 10, packBufSize: 2 << 10, sieveBufSize: 4 << 10}}
						h := newHistory(seed, P)
						runHistory(t, w, h, backend != "mem")
						if t.Failed() {
							t.Fatalf("seed %d (column %d)", seed, h.g)
						}
					}
				})
			}
		}
	}
}
