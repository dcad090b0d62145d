package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datatype"
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

// diffCase is one cell of the differential matrix.
type diffCase struct {
	engine Engine
	tcp    bool
}

func (c diffCase) String() string {
	tr := "loopback"
	if c.tcp {
		tr = "tcp"
	}
	return fmt.Sprintf("%s/%s", c.engine, tr)
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
// struct / nested, zero-length blocks, holes) drive a 4-rank collective
// write + read-back across {engine} × {loopback, TCP}, and every cell's
// file must match, byte for byte, a flat oracle computed from the
// datatype Walk alone.  Every cell runs on a Checked pool, so a
// double-put or use-after-put anywhere in the window loop, the
// exchange, or the transport panics the world.
func TestQuickDifferentialRandomTrees(t *testing.T) {
	const P = 4
	seeds := []int64{1, 2, 3, 5, 8, 13}
	if testing.Short() {
		seeds = seeds[:2]
	}
	cells := []diffCase{}
	for _, eng := range []Engine{Listless, ListBased} {
		for _, tcp := range []bool{false, true} {
			cells = append(cells, diffCase{engine: eng, tcp: tcp})
		}
	}
	for _, seed := range seeds {
		r := rand.New(rand.NewSource(seed))
		base := datatype.RandomFiletype(r, 3)
		// ValidateFiletype guarantees extent >= trueUB, so tiling rank
		// windows extent apart never overlaps.
		stride := base.Extent()
		d := 2*base.Size() + 1 + r.Int63n(base.Size()) // partial final tile
		data := make([][]byte, P)
		for rank := 0; rank < P; rank++ {
			data[rank] = pattern(rank*7+int(seed), d)
		}
		want := diffOracle(base, P, stride, d, data)

		for _, c := range cells {
			be := storage.NewMem()
			sh := NewShared(be)
			opts := Options{
				Engine:      c.engine,
				CollBufSize: 64 + r.Intn(256),
				Pool:        pool.NewChecked(),
			}
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
				if _, err := f.WriteAtAll(0, d, datatype.Byte, data[p.Rank()]); err != nil {
					panic(err)
				}
				got := make([]byte, d)
				if _, err := f.ReadAtAll(0, d, datatype.Byte, got); err != nil {
					panic(err)
				}
				if !bytes.Equal(got, data[p.Rank()]) {
					panic(fmt.Sprintf("rank %d: read-back mismatch", p.Rank()))
				}
			})
			if err != nil {
				t.Fatalf("seed %d cell %s (base %s): %v", seed, c, base, err)
			}
			got := be.Bytes()
			// File lengths may differ by a zero tail: the oracle ends at
			// the last mapped byte, while a window write-back may round
			// up (and a trailing hole rounds down).
			n := min(len(got), len(want))
			if !bytes.Equal(got[:n], want[:n]) || !allZero(got[n:]) || !allZero(want[n:]) {
				t.Fatalf("seed %d cell %s (base %s, stride %d, d %d): file differs from oracle (%d vs %d bytes)",
					seed, c, base, stride, d, len(got), len(want))
			}
		}
	}
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
