package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/datatype"
	"repro/internal/fotf"
	"repro/internal/mpi"
	"repro/internal/pool"
	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// declinedTail is 65 538 runs of alternately 1 and 2 bytes, a byte
// apart: no two neighbours fold into one compiled group, so it holds one
// group per run, more than fotf compiles, in 160 KiB.  The tree is a
// vector of pairs, as small to encode and exchange as the views it
// extends.
var declinedTail = sync.OnceValue(func() *datatype.Type {
	pair := mustType(datatype.Hindexed([]int64{1, 2}, []int64{0, 2}, datatype.Byte))
	return mustType(datatype.Hvector(1<<15+1, 1, 5, pair))
})

// declinedType returns t followed, past its upper bound, by declinedTail:
// a type whose compile declines as a type past fotf's limits does in
// production, so that every copy of it takes the walk.  The tail's data
// comes after all of t's, so an access of no more than t.Size() bytes
// into a fileview of it touches the same file bytes as one into t.  It
// fails tb if fotf.Compile does not return nil for the result.
func declinedType(tb testing.TB, t *datatype.Type) *datatype.Type {
	tb.Helper()
	tail := declinedTail()
	// A byte clear of t's data, so that the tail's first run cannot abut
	// t's last and fold the groups that follow it.
	off := max(t.UB(), t.TrueUB()+1)
	dt := mustType(datatype.Struct([]int64{1, 1}, []int64{0, off}, []*datatype.Type{t, tail}))
	if ext := off + tail.Extent() - t.LB(); dt.Extent() != ext { // t's bound markers hold the struct's
		dt = mustType(datatype.Resized(dt, t.LB(), ext))
	}
	if fotf.Compile(dt) != nil {
		tb.Fatalf("%v followed by the tail compiles; the cell would not reach the walk", t)
	}
	return dt
}

// progCase is one cell of the program differential matrix.
type progCase struct {
	engine   Engine
	tcp      bool
	declined bool
}

func (c progCase) String() string {
	tr, mode := "loopback", "compiled"
	if c.tcp {
		tr = "tcp"
	}
	if c.declined {
		mode = "declined"
	}
	return fmt.Sprintf("%s/%s/%s", c.engine, tr, mode)
}

// TestQuickProgramCollective extends the random-tree differential
// matrix with the compiled-program axis: seeded random datatype trees
// drive a 4-rank collective write + read-back across {engine} ×
// {loopback, TCP} × {compiled, declined}, and every cell's file must
// match, byte for byte, the flat Walk oracle — so the program and walk
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
	cells := []progCase{}
	for _, eng := range []Engine{Listless, ListBased} {
		for _, tcp := range []bool{false, true} {
			for _, declined := range []bool{false, true} {
				cells = append(cells, progCase{engine: eng, tcp: tcp, declined: declined})
			}
		}
	}
	fd0 := testutil.FDCount(t)
	for _, seed := range seeds {
		r := rand.New(rand.NewSource(seed))
		compiled := datatype.RandomFiletype(r, 3)
		declined := declinedType(t, compiled)
		// Past two instances of the view into a partial third, for both
		// views: the declined cells walk the tail twice and cross two tile
		// boundaries.
		extra := r.Int63n(compiled.Size())
		d := 2*compiled.Size() + 1 + extra
		dd := 2*declined.Size() + 1 + extra
		data := make([][]byte, P)
		for rank := 0; rank < P; rank++ {
			data[rank] = pattern(rank*11+int(seed), dd)
		}
		wants := [2][]byte{diffOracle(compiled, P, compiled.Extent(), d, data), diffOracle(declined, P, declined.Extent(), dd, data)}

		for _, c := range cells {
			base, d, want := compiled, d, wants[0]
			opts := Options{
				Engine:      c.engine,
				CollBufSize: 64 + r.Intn(256),
				Pool:        pool.NewChecked(),
			}
			if c.declined {
				// The tail is 160 KiB of each view: windows sixteen times
				// as large, as diffCell's.
				base, d, want = declined, dd, wants[1]
				opts.CollBufSize *= 16
			}
			stride := base.Extent()
			checkLeaks := testutil.LeakCheck(t)
			be := storage.NewMem()
			sh := NewShared(be)
			var eps []transport.Transport
			if c.tcp {
				var err error
				eps, err = transport.NewLocalTCPWorld(P, transport.TCPConfig{})
				if err != nil {
					t.Fatal(err)
				}
			} else {
				eps = transport.NewLoopback(P)
			}
			var progLookups atomic.Int64
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
				view, err := datatype.Resized(st, 0, int64(P)*stride)
				if err != nil {
					panic(err)
				}
				if err := f.SetView(0, datatype.Byte, view); err != nil {
					panic(err)
				}
				if e, ok := f.eng.(*listlessEngine); ok && (e.prog == nil) != c.declined {
					panic(fmt.Sprintf("rank %d: own view compiled: %v", p.Rank(), e.prog != nil))
				}
				buf := data[p.Rank()][:d]
				if _, err := f.WriteAtAll(0, d, datatype.Byte, buf); err != nil {
					panic(err)
				}
				got := make([]byte, d)
				if _, err := f.ReadAtAll(0, d, datatype.Byte, got); err != nil {
					panic(err)
				}
				if !bytes.Equal(got, buf) {
					panic(fmt.Sprintf("rank %d: read-back mismatch", p.Rank()))
				}
				progLookups.Add(f.Stats.ProgramCompiles + f.Stats.ProgramCacheHits)
			})
			if err != nil {
				t.Fatalf("seed %d cell %s (base %s): %v", seed, c, compiled, err)
			}
			if lookups := progLookups.Load(); (lookups != 0) != (c.engine == Listless) {
				t.Errorf("seed %d cell %s: %d program lookups", seed, c, lookups)
			}
			got := be.Bytes()
			n := min(len(got), len(want))
			if !bytes.Equal(got[:n], want[:n]) || !allZero(got[n:]) || !allZero(want[n:]) {
				t.Fatalf("seed %d cell %s (base %s, stride %d, d %d): file differs from oracle (%d vs %d bytes)",
					seed, c, compiled, stride, d, len(got), len(want))
			}
			checkLeaks()
		}
	}
	if fd0 >= 0 {
		if fd1 := testutil.FDCount(t); fd1 > fd0 {
			t.Errorf("fd leak: %d before, %d after", fd0, fd1)
		}
	}
}

// TestProgramMemtypeRoundTrip drives a non-contiguous memtype through
// both engines, independently and collectively, and requires identical
// files and read-backs.  The listless engine packs the memtype by its
// compiled program; the list-based engine, the paper's baseline, asks
// for no program and flattens the memtype into ol-list tuples, as ROMIO
// does.
func TestProgramMemtypeRoundTrip(t *testing.T) {
	const P = 2
	for _, collective := range []bool{false, true} {
		var files [2][]byte
		for ei, eng := range []Engine{Listless, ListBased} {
			be := storage.NewMem()
			sh := NewShared(be)
			opts := Options{
				Engine:       eng,
				CollBufSize:  128,
				SieveBufSize: 96,
				PackBufSize:  64,
			}
			_, err := mpi.RunWithOptions(P, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
				f, err := Open(p, sh, opts)
				if err != nil {
					panic(err)
				}
				defer f.Close()
				ft := noncontigTypeP(p.Rank(), P, 16, 8)
				if err := f.SetView(0, datatype.Byte, ft); err != nil {
					panic(err)
				}
				// Holey memtype: 8-byte elements every 16 bytes.
				elem := holeyDouble()
				const count = 16
				d := count * elem.Size()
				buf := make([]byte, count*elem.Extent())
				rand.New(rand.NewSource(int64(p.Rank()))).Read(buf)
				lookups0, tuples0 := f.Stats.ProgramCompiles+f.Stats.ProgramCacheHits, f.Stats.ListTuples
				var werr error
				if collective {
					_, werr = f.WriteAtAll(0, count, elem, buf)
				} else {
					_, werr = f.WriteAt(0, count, elem, buf)
				}
				if werr != nil {
					panic(werr)
				}
				got := make([]byte, len(buf))
				var rerr error
				if collective {
					_, rerr = f.ReadAtAll(0, count, elem, got)
				} else {
					_, rerr = f.ReadAt(0, count, elem, got)
				}
				if rerr != nil {
					panic(rerr)
				}
				// Compare only the data bytes: the holes of got were
				// never written.
				for i := int64(0); i < d/8; i++ {
					a := buf[i*16 : i*16+8]
					b := got[i*16 : i*16+8]
					if !bytes.Equal(a, b) {
						panic(fmt.Sprintf("rank %d element %d differs", p.Rank(), i))
					}
				}
				lookups, tuples := f.Stats.ProgramCompiles+f.Stats.ProgramCacheHits-lookups0, f.Stats.ListTuples-tuples0
				switch {
				case eng == Listless && (lookups == 0 || tuples != 0):
					panic(fmt.Sprintf("listless: %d program lookups, %d list tuples for a non-contiguous memtype", lookups, tuples))
				case eng == ListBased && lookups != 0:
					panic(fmt.Sprintf("list-based: %d program lookups; the baseline compiles nothing", lookups))
				case eng == ListBased && len(f.eng.newMemState(elem, count).list) == 0:
					panic("list-based: the memtype was not flattened into tuples")
				}
			})
			if err != nil {
				t.Fatalf("engine %v collective %v: %v", eng, collective, err)
			}
			files[ei] = be.Bytes()
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Fatalf("collective %v: the engines' files differ", collective)
		}
	}
}
