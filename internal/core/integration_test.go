package core

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/storage"
)

// Integration tests across storage backends and option combinations.

func TestFileBackendEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coll.dat")
	fb, err := storage.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	sh := NewShared(fb)
	const P = 4
	_, err = mpi.Run(P, func(p *mpi.Proc) {
		f, err := Open(p, sh, Options{Engine: Listless, CollBufSize: 4096})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		ft := noncontigTypeP(p.Rank(), P, 64, 32)
		if err := f.SetView(0, datatype.Byte, ft); err != nil {
			panic(err)
		}
		d := int64(64 * 32)
		data := pattern(p.Rank(), d)
		if _, err := f.WriteAtAll(0, d, datatype.Byte, data); err != nil {
			panic(err)
		}
		got := make([]byte, d)
		if _, err := f.ReadAtAll(0, d, datatype.Byte, got); err != nil {
			panic(err)
		}
		if !bytes.Equal(got, data) {
			panic("file backend round trip failed")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(P * 64 * 32); fb.Size() != want {
		t.Fatalf("file size %d, want %d", fb.Size(), want)
	}
}

func TestThrottledBackendEndToEnd(t *testing.T) {
	// With a slow file system the engines converge (the paper's
	// "file-system performance is the limiting factor" regime); mostly
	// this checks the throttle composes with the full stack.
	th := storage.NewThrottled(storage.NewMem(), 0, 50_000_000, 0) // 50 MB/s writes
	sh := NewShared(th)
	start := time.Now()
	_, err := mpi.Run(2, func(p *mpi.Proc) {
		f, err := Open(p, sh, Options{Engine: Listless})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		data := pattern(p.Rank(), 1<<20)
		if _, err := f.WriteAt(int64(p.Rank())<<20, 1<<20, datatype.Byte, data); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 MiB at 50 MB/s ≈ 42 ms minimum.
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("throttled write finished in %v; throttle ignored", d)
	}
}

func TestFlattenCacheReusedAcrossSetView(t *testing.T) {
	// ROMIO stores the ol-list on the datatype: re-installing a view
	// with the same filetype must not re-flatten.
	be := storage.NewMem()
	sh := NewShared(be)
	_, err := mpi.Run(1, func(p *mpi.Proc) {
		f, err := Open(p, sh, Options{Engine: ListBased})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		ft := noncontigTypeP(0, 2, 1000, 8)
		if err := f.SetView(0, datatype.Byte, ft); err != nil {
			panic(err)
		}
		after1 := f.Stats.ListTuples
		if after1 == 0 {
			panic("first SetView built no list")
		}
		for i := 0; i < 3; i++ {
			if err := f.SetView(0, datatype.Byte, ft); err != nil {
				panic(err)
			}
		}
		if f.Stats.ListTuples != after1 {
			panic("repeated SetView with the same filetype re-flattened")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSetViewSwitchingTypes(t *testing.T) {
	// Writing through one view and reading through another must observe
	// the same file bytes.
	a, b := runBoth(t, 2, Options{}, func(f *File) {
		rank := f.Proc().Rank()
		P := f.Proc().Size()
		ft := noncontigTypeP(rank, P, 32, 8)
		if err := f.SetView(0, datatype.Byte, ft); err != nil {
			panic(err)
		}
		d := int64(32 * 8)
		data := pattern(rank, d)
		if _, err := f.WriteAtAll(0, d, datatype.Byte, data); err != nil {
			panic(err)
		}
		// Re-read through the plain byte view: rank 0 checks the
		// interleaving directly.
		if err := f.SetView(0, datatype.Byte, datatype.Byte); err != nil {
			panic(err)
		}
		if rank == 0 {
			whole := make([]byte, int64(P)*d)
			if _, err := f.ReadAt(0, int64(len(whole)), datatype.Byte, whole); err != nil {
				panic(err)
			}
			for r := 0; r < P; r++ {
				want := pattern(r, d)
				for blk := 0; blk < 32; blk++ {
					off := blk*P*8 + r*8
					if !bytes.Equal(whole[off:off+8], want[blk*8:blk*8+8]) {
						panic("byte-view read disagrees with typed write")
					}
				}
			}
		}
		f.Proc().Barrier()
	})
	requireEqualFiles(t, a, b)
}

func TestBigBlocksWithTinyBuffers(t *testing.T) {
	// Buffer-limit handling (§3.2.2): file buffer smaller than a single
	// contiguous block, pack buffer smaller than the file buffer.
	a, b := runBoth(t, 2, Options{SieveBufSize: 48, PackBufSize: 16, CollBufSize: 64}, func(f *File) {
		rank := f.Proc().Rank()
		P := f.Proc().Size()
		ft := noncontigTypeP(rank, P, 4, 128) // 128-byte blocks vs 48-byte windows
		if err := f.SetView(0, datatype.Byte, ft); err != nil {
			panic(err)
		}
		mt, err := datatype.Hvector(4, 128, 160, datatype.Byte)
		if err != nil {
			panic(err)
		}
		buf := pattern(rank, mt.Extent())
		if _, err := f.WriteAt(0, 1, mt, buf); err != nil {
			panic(err)
		}
		got := make([]byte, len(buf))
		if _, err := f.ReadAt(0, 1, mt, got); err != nil {
			panic(err)
		}
		for i := 0; i < 4; i++ {
			o := i * 160
			if !bytes.Equal(got[o:o+128], buf[o:o+128]) {
				panic("tiny-buffer round trip mismatch")
			}
		}
		// And collectively.
		if _, err := f.WriteAtAll(0, 1, mt, buf); err != nil {
			panic(err)
		}
	})
	requireEqualFiles(t, a, b)
}

func TestManySmallIndependentAccesses(t *testing.T) {
	// Stress the positioning paths: many accesses at scattered etype
	// offsets within the view.
	a, b := runBoth(t, 1, Options{SieveBufSize: 128}, func(f *File) {
		ft := noncontigTypeP(0, 3, 64, 8) // every 3rd 8-byte block
		if err := f.SetView(0, datatype.Byte, ft); err != nil {
			panic(err)
		}
		full := pattern(5, 64*8)
		if _, err := f.WriteAt(0, 64*8, datatype.Byte, full); err != nil {
			panic(err)
		}
		for i := 0; i < 50; i++ {
			off := int64((i * 37) % 500)
			n := int64(1 + (i*13)%12)
			got := make([]byte, n)
			if _, err := f.ReadAt(off, n, datatype.Byte, got); err != nil {
				panic(err)
			}
			if !bytes.Equal(got, full[off:off+n]) {
				panic("scattered read mismatch")
			}
		}
	})
	requireEqualFiles(t, a, b)
}

// TestTwoWorldsTwoFiles: two worlds run at once in one process, each
// with its own Shared over its own Mem, and both draw on the process-wide
// program cache and buffer pool (Options.Pool nil).  Each file must hold
// its own world's bytes and nothing of the other's.
func TestTwoWorldsTwoFiles(t *testing.T) {
	const P, blocks, blocklen = 2, 16, 8
	const d = blocks * blocklen
	for _, eng := range []Engine{Listless, ListBased} {
		backends := [2]*storage.Mem{storage.NewMem(), storage.NewMem()}
		errs := make([]error, len(backends))
		var wg sync.WaitGroup
		for g := range backends {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				sh := NewShared(backends[g])
				_, errs[g] = mpi.Run(P, func(p *mpi.Proc) {
					f, err := Open(p, sh, Options{Engine: eng, CollBufSize: 64})
					if err != nil {
						panic(err)
					}
					defer f.Close()
					ft := noncontigTypeP(p.Rank(), P, blocks, blocklen)
					if err := f.SetView(0, datatype.Byte, ft); err != nil {
						panic(err)
					}
					data := pattern(g*P+p.Rank(), d)
					if _, err := f.WriteAtAll(0, d, datatype.Byte, data); err != nil {
						panic(err)
					}
					got := make([]byte, d)
					if _, err := f.ReadAtAll(0, d, datatype.Byte, got); err != nil {
						panic(err)
					}
					if !bytes.Equal(got, data) {
						panic("round trip differs")
					}
				})
			}(g)
		}
		wg.Wait()
		for g, be := range backends {
			if errs[g] != nil {
				t.Fatalf("%v: world %d: %v", eng, g, errs[g])
			}
			want := make([]byte, P*d)
			for r := 0; r < P; r++ {
				data := pattern(g*P+r, d)
				for blk := 0; blk < blocks; blk++ {
					copy(want[(blk*P+r)*blocklen:], data[blk*blocklen:(blk+1)*blocklen])
				}
			}
			if !bytes.Equal(be.Bytes(), want) {
				t.Fatalf("%v: world %d's file differs from its oracle", eng, g)
			}
		}
	}
}
