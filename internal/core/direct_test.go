package core

import (
	"bytes"
	"testing"

	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/storage"
)

// Tests for the sieving-vs-direct-access decision (Options.SieveDensity,
// the paper's §5 outlook item).

// sparseType selects 8 bytes out of every 1024: density 1/128.
func sparseType(t *testing.T) *datatype.Type {
	t.Helper()
	dt, err := datatype.Hvector(16, 8, 1024, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	return dt
}

func TestDirectPathTriggersOnSparseAccess(t *testing.T) {
	for _, eng := range []Engine{Listless, ListBased} {
		be := storage.NewInstrumented(storage.NewMem())
		sh := NewShared(be)
		_, err := mpi.Run(1, func(p *mpi.Proc) {
			f, err := Open(p, sh, Options{Engine: eng, SieveDensity: 0.5})
			if err != nil {
				panic(err)
			}
			defer f.Close()
			if err := f.SetView(0, datatype.Byte, sparseType(t)); err != nil {
				panic(err)
			}
			data := pattern(1, 128)
			if _, err := f.WriteAt(0, 128, datatype.Byte, data); err != nil {
				panic(err)
			}
			if f.Stats.DirectWrites == 0 || f.Stats.SieveWrites != 0 {
				panic("sparse write did not take the direct path")
			}
			got := make([]byte, 128)
			if _, err := f.ReadAt(0, 128, datatype.Byte, got); err != nil {
				panic(err)
			}
			if f.Stats.DirectReads == 0 || f.Stats.SieveReads != 0 {
				panic("sparse read did not take the direct path")
			}
			if !bytes.Equal(got, data) {
				panic("direct path round trip mismatch")
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		// No read-modify-write: the direct write path must not read.
		st := be.Stats()
		if st.BytesRead > 256 { // read phase reads only the 16×8 blocks
			t.Errorf("%v: direct access read %d bytes; RMW not avoided", eng, st.BytesRead)
		}
	}

	// The trade at 1/128 density, in storage bytes per user byte:
	// 64-byte blocks at a 64·128-byte pitch.  The direct path
	// (SieveDensity 1) moves exactly the user bytes each way; the sieve
	// (SieveDensity 0) reads every window the access spans, at least 64×
	// them, for the write's read-modify-write and for the read alike.
	// The file exists before the write, so that the pre-read has bytes
	// to read.
	dt, err := datatype.Hvector(4096, 64, 64*128, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	d := dt.Size()
	for _, density := range []float64{1, 0} {
		be := storage.NewInstrumented(storage.NewMem())
		if _, err := be.WriteAt(make([]byte, dt.Extent()), 0); err != nil {
			t.Fatal(err)
		}
		be.Reset()
		var wr, rd storage.AccessStats
		_, err := mpi.Run(1, func(p *mpi.Proc) {
			f, err := Open(p, NewShared(be), Options{SieveDensity: density})
			if err != nil {
				panic(err)
			}
			defer f.Close()
			if err := f.SetView(0, datatype.Byte, dt); err != nil {
				panic(err)
			}
			data := pattern(2, d)
			if _, err := f.WriteAt(0, d, datatype.Byte, data); err != nil {
				panic(err)
			}
			wr = be.Stats()
			be.Reset()
			got := make([]byte, d)
			if _, err := f.ReadAt(0, d, datatype.Byte, got); err != nil {
				panic(err)
			}
			rd = be.Stats()
			if !bytes.Equal(got, data) {
				panic("1/128 round trip mismatch")
			}
		})
		if err != nil {
			t.Fatalf("density=%v: %v", density, err)
		}
		if density == 1 {
			if wr.BytesRead != 0 || wr.BytesWritten != d || rd.BytesRead != d || rd.BytesWritten != 0 {
				t.Errorf("direct at 1/128: write read %d wrote %d, read read %d wrote %d; want 0, %d, %d, 0",
					wr.BytesRead, wr.BytesWritten, rd.BytesRead, rd.BytesWritten, d, d)
			}
		} else if wr.BytesRead < 64*d || rd.BytesRead < 64*d {
			t.Errorf("sieve at 1/128: write read %d, read read %d storage bytes; want at least 64×%d each",
				wr.BytesRead, rd.BytesRead, d)
		}
	}
}

func TestDirectVsSievingIdenticalFiles(t *testing.T) {
	// The heuristic must not change file contents: compare density
	// thresholds that force each path, across engines, with a
	// non-contiguous memtype.
	memt, err := datatype.Hvector(16, 8, 24, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	var files [4][]byte
	i := 0
	for _, density := range []float64{0, 0.9} {
		for _, eng := range []Engine{Listless, ListBased} {
			be := storage.NewMem()
			sh := NewShared(be)
			_, err := mpi.Run(2, func(p *mpi.Proc) {
				f, err := Open(p, sh, Options{Engine: eng, SieveDensity: density, PackBufSize: 32})
				if err != nil {
					panic(err)
				}
				defer f.Close()
				ft := noncontigTypeP(p.Rank(), 2, 16, 8)
				if err := f.SetView(0, datatype.Byte, ft); err != nil {
					panic(err)
				}
				buf := pattern(p.Rank(), memt.Extent())
				if _, err := f.WriteAt(0, 1, memt, buf); err != nil {
					panic(err)
				}
				got := make([]byte, len(buf))
				if _, err := f.ReadAt(0, 1, memt, got); err != nil {
					panic(err)
				}
				for b := int64(0); b < 16; b++ {
					o := b * 24
					if !bytes.Equal(got[o:o+8], buf[o:o+8]) {
						panic("direct/sieve round trip mismatch")
					}
				}
			})
			if err != nil {
				t.Fatalf("density=%v %v: %v", density, eng, err)
			}
			files[i] = be.Bytes()
			i++
		}
	}
	for k := 1; k < 4; k++ {
		if !bytes.Equal(files[0], files[k]) {
			t.Fatalf("variant %d produced a different file", k)
		}
	}
}

func TestDenseAccessStillSieves(t *testing.T) {
	// Density above the threshold keeps the sieving path.
	be := storage.NewMem()
	sh := NewShared(be)
	_, err := mpi.Run(1, func(p *mpi.Proc) {
		f, err := Open(p, sh, Options{Engine: Listless, SieveDensity: 0.25})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		// Half-dense view: 8 of every 16 bytes.
		ft, err := datatype.Hvector(32, 8, 16, datatype.Byte)
		if err != nil {
			panic(err)
		}
		if err := f.SetView(0, datatype.Byte, ft); err != nil {
			panic(err)
		}
		if _, err := f.WriteAt(0, 256, datatype.Byte, pattern(0, 256)); err != nil {
			panic(err)
		}
		if f.Stats.SieveWrites == 0 || f.Stats.DirectWrites != 0 {
			panic("dense access took the direct path")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDirectPathMergesAbuttingStretches: a fileview whose last run in each
// instance abuts the next instance's first run (blocks at 0 and at
// extent-8) is one stretch per instance boundary, which neither the
// compiled program nor the ol-list joins.  The owner mover lists each
// stretch as one segment, on both engines, and the file and the read-back
// match the flat oracle.
func TestDirectPathMergesAbuttingStretches(t *testing.T) {
	const ext, inst = 1024, 64
	ft := mustType(datatype.Resized(mustType(datatype.Hindexed([]int64{8, 8}, []int64{0, ext - 8}, datatype.Byte)), 0, ext))
	d := int64(inst * 16)
	data := pattern(4, d)
	var want []byte
	var stretches, end int64
	viewPlaces(0, ft, d, func(off, at, n int64) {
		if off != end || stretches == 0 {
			stretches++
		}
		end = off + n
		want = append(want, make([]byte, end-int64(len(want)))...)
		copy(want[off:end], data[at:at+n])
	})
	if stretches != inst+1 {
		t.Fatalf("the view has %d stretches, want %d", stretches, inst+1)
	}
	for _, eng := range []Engine{Listless, ListBased} {
		be := storage.NewMem()
		var st Stats
		got := make([]byte, d)
		_, err := mpi.Run(1, func(p *mpi.Proc) {
			f, err := Open(p, NewShared(be), Options{Engine: eng, SieveDensity: 0.25})
			if err != nil {
				panic(err)
			}
			defer f.Close()
			if err := f.SetView(0, datatype.Byte, ft); err != nil {
				panic(err)
			}
			if _, err := f.WriteAt(0, d, datatype.Byte, data); err != nil {
				panic(err)
			}
			if _, err := f.ReadAt(0, d, datatype.Byte, got); err != nil {
				panic(err)
			}
			st = f.Stats
		})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if st.DirectWrites != stretches || st.DirectReads != stretches || st.VectoredWrites != 1 || st.VectoredReads != 1 {
			t.Errorf("%v: %d/%d segments in %d/%d batches written/read, want %d in one batch each",
				eng, st.DirectWrites, st.DirectReads, st.VectoredWrites, st.VectoredReads, stretches)
		}
		if !bytes.Equal(be.Bytes(), want) || !bytes.Equal(got, data) {
			t.Errorf("%v: the file or the read-back differs from the flat oracle", eng)
		}
	}
}
