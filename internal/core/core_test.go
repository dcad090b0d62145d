package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/storage"
)

// noncontigType builds the Figure-4 fileview type for rank p of P:
// blockcount blocks of blocklen bytes, stride P*blocklen, displaced by
// p*blocklen, extent blockcount*P*blocklen.  The union over ranks covers
// the file contiguously.
func noncontigType(t *testing.T, p, P int, blockcount, blocklen int64) *datatype.Type {
	t.Helper()
	dt, err := NoncontigFiletype(p, P, blockcount, blocklen)
	if err != nil {
		t.Fatal(err)
	}
	return dt
}

// NoncontigFiletype is exported for reuse by dependent packages' tests.
func NoncontigFiletype(p, P int, blockcount, blocklen int64) (*datatype.Type, error) {
	vec, err := datatype.Hvector(blockcount, blocklen, int64(P)*blocklen, datatype.Byte)
	if err != nil {
		return nil, err
	}
	disp := int64(p) * blocklen
	extent := blockcount * int64(P) * blocklen
	return datatype.Struct(
		[]int64{1, 1, 1},
		[]int64{0, disp, extent},
		[]*datatype.Type{datatype.LBMarker, vec, datatype.UBMarker},
	)
}

func pattern(rank int, n int64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte((rank*131 + i*7) % 251)
	}
	return b
}

// runBoth runs the scenario under both engines on fresh Mem backends and
// returns the two backends for comparison.
func runBoth(t *testing.T, P int, opts Options, scenario func(f *File)) (listless, listbased *storage.Mem) {
	t.Helper()
	backends := make([]*storage.Mem, 2)
	for i, eng := range []Engine{Listless, ListBased} {
		be := storage.NewMem()
		backends[i] = be
		sh := NewShared(be)
		o := opts
		o.Engine = eng
		_, err := mpi.Run(P, func(p *mpi.Proc) {
			f, err := Open(p, sh, o)
			if err != nil {
				panic(err)
			}
			scenario(f)
			if err := f.Close(); err != nil {
				panic(err)
			}
		})
		if err != nil {
			t.Fatalf("engine %v: %v", eng, err)
		}
	}
	return backends[0], backends[1]
}

// requireEqualFiles asserts both engines produced identical files.
func requireEqualFiles(t *testing.T, a, b *storage.Mem) {
	t.Helper()
	ab, bb := a.Bytes(), b.Bytes()
	if !bytes.Equal(ab, bb) {
		if len(ab) != len(bb) {
			t.Fatalf("file sizes differ: listless %d vs list-based %d", len(ab), len(bb))
		}
		for i := range ab {
			if ab[i] != bb[i] {
				t.Fatalf("files differ first at byte %d: %d vs %d", i, ab[i], bb[i])
			}
		}
	}
}

func TestIndependentContigContig(t *testing.T) {
	a, b := runBoth(t, 2, Options{}, func(f *File) {
		rank := f.Proc().Rank()
		data := pattern(rank, 1000)
		if _, err := f.WriteAt(int64(rank)*1000, 1000, datatype.Byte, data); err != nil {
			panic(err)
		}
		got := make([]byte, 1000)
		if _, err := f.ReadAt(int64(rank)*1000, 1000, datatype.Byte, got); err != nil {
			panic(err)
		}
		if !bytes.Equal(got, data) {
			panic("read-back mismatch")
		}
	})
	requireEqualFiles(t, a, b)
	if got := a.Bytes(); len(got) != 2000 {
		t.Fatalf("file size = %d", len(got))
	}
}

func TestIndependentNcMemContigFile(t *testing.T) {
	// nc-c: strided memtype, contiguous file.
	mem, err := datatype.Vector(50, 1, 3, datatype.Double) // 50 doubles every 3
	if err != nil {
		t.Fatal(err)
	}
	a, b := runBoth(t, 2, Options{PackBufSize: 64}, func(f *File) {
		rank := f.Proc().Rank()
		buf := pattern(rank, mem.Extent()+64)
		if _, err := f.WriteAt(int64(rank)*400, 1, mem, buf); err != nil {
			panic(err)
		}
		got := make([]byte, len(buf))
		if _, err := f.ReadAt(int64(rank)*400, 1, mem, got); err != nil {
			panic(err)
		}
		// Compare only typed positions.
		for i := 0; i < 50; i++ {
			off := i * 24
			if !bytes.Equal(got[off:off+8], buf[off:off+8]) {
				panic(fmt.Sprintf("rank %d: block %d mismatch", rank, i))
			}
		}
	})
	requireEqualFiles(t, a, b)
}

func TestIndependentSievingWriteRead(t *testing.T) {
	// c-nc and nc-nc with a small sieve buffer to force many windows.
	for _, P := range []int{1, 2, 4} {
		for _, memNC := range []bool{false, true} {
			name := fmt.Sprintf("P=%d,memNC=%v", P, memNC)
			t.Run(name, func(t *testing.T) {
				const blockcount, blocklen = 37, 16
				a, b := runBoth(t, P, Options{SieveBufSize: 96, PackBufSize: 80}, func(f *File) {
					rank := f.Proc().Rank()
					ft := noncontigTypeP(rank, f.Proc().Size(), blockcount, blocklen)
					if err := f.SetView(0, datatype.Byte, ft); err != nil {
						panic(err)
					}
					d := int64(blockcount * blocklen)
					var memt *datatype.Type
					var buf []byte
					if memNC {
						var err error
						memt, err = datatype.Hvector(blockcount, blocklen, blocklen+8, datatype.Byte)
						if err != nil {
							panic(err)
						}
						buf = pattern(rank, memt.Extent()+8)
					} else {
						memt = datatype.Byte
						buf = pattern(rank, d)
					}
					count := int64(1)
					if !memNC {
						count = d
					}
					if _, err := f.WriteAt(0, count, memt, buf); err != nil {
						panic(err)
					}
					got := make([]byte, len(buf))
					if _, err := f.ReadAt(0, count, memt, got); err != nil {
						panic(err)
					}
					// Typed positions must round-trip.
					if memNC {
						for i := int64(0); i < blockcount; i++ {
							off := i * (blocklen + 8)
							if !bytes.Equal(got[off:off+blocklen], buf[off:off+blocklen]) {
								panic(fmt.Sprintf("rank %d block %d mismatch", rank, i))
							}
						}
					} else if !bytes.Equal(got, buf) {
						panic(fmt.Sprintf("rank %d contig read-back mismatch", rank))
					}
				})
				requireEqualFiles(t, a, b)
				// All ranks interleave: file must be the dense union.
				want := int64(P) * blockcount * blocklen
				if got := int64(len(a.Bytes())); got != want {
					t.Fatalf("file size = %d, want %d", got, want)
				}
			})
		}
	}
}

// noncontigTypeP is noncontigType without the *testing.T.
func noncontigTypeP(p, P int, blockcount, blocklen int64) *datatype.Type {
	dt, err := NoncontigFiletype(p, P, blockcount, blocklen)
	if err != nil {
		panic(err)
	}
	return dt
}

func TestIndependentOffsetInsideFiletype(t *testing.T) {
	// Access at an etype offset that starts mid-filetype.
	a, b := runBoth(t, 1, Options{SieveBufSize: 64}, func(f *File) {
		ft := noncontigTypeP(0, 2, 10, 8) // 10 blocks of 8, stride 16
		if err := f.SetView(0, datatype.Byte, ft); err != nil {
			panic(err)
		}
		full := pattern(1, 80)
		if _, err := f.WriteAt(0, 80, datatype.Byte, full); err != nil {
			panic(err)
		}
		// Read 24 bytes starting at etype (byte) offset 12 in the view.
		got := make([]byte, 24)
		if _, err := f.ReadAt(12, 24, datatype.Byte, got); err != nil {
			panic(err)
		}
		if !bytes.Equal(got, full[12:36]) {
			panic("mid-view read mismatch")
		}
		// Overwrite 10 bytes at view offset 35 and verify.
		repl := pattern(9, 10)
		if _, err := f.WriteAt(35, 10, datatype.Byte, repl); err != nil {
			panic(err)
		}
		back := make([]byte, 10)
		if _, err := f.ReadAt(35, 10, datatype.Byte, back); err != nil {
			panic(err)
		}
		if !bytes.Equal(back, repl) {
			panic("mid-view write-back mismatch")
		}
	})
	requireEqualFiles(t, a, b)
}

func TestIndependentEtypeGranularity(t *testing.T) {
	// etype = double: offsets count doubles, not bytes.
	a, b := runBoth(t, 1, Options{}, func(f *File) {
		ft, err := datatype.Vector(8, 1, 2, datatype.Double)
		if err != nil {
			panic(err)
		}
		if err := f.SetView(0, datatype.Double, ft); err != nil {
			panic(err)
		}
		data := pattern(3, 32) // 4 doubles
		if _, err := f.WriteAt(2, 32, datatype.Byte, data); err != nil {
			panic(err)
		}
		got := make([]byte, 32)
		if _, err := f.ReadAt(2, 32, datatype.Byte, got); err != nil {
			panic(err)
		}
		if !bytes.Equal(got, data) {
			panic("etype-offset round trip failed")
		}
		// The third visible double lives at file offset 2*16=32.
		raw := make([]byte, 8)
		if err := storage.ReadFull(f.sh.b, raw, 32); err != nil {
			panic(err)
		}
		if !bytes.Equal(raw, data[:8]) {
			panic("etype offset landed at the wrong file position")
		}
	})
	requireEqualFiles(t, a, b)
}

func TestIndependentNonMultipleEtypeRejected(t *testing.T) {
	be := storage.NewMem()
	sh := NewShared(be)
	_, err := mpi.Run(1, func(p *mpi.Proc) {
		f, err := Open(p, sh, Options{})
		if err != nil {
			panic(err)
		}
		if err := f.SetView(0, datatype.Double, datatype.Double); err != nil {
			panic(err)
		}
		if _, err := f.WriteAt(0, 12, datatype.Byte, make([]byte, 12)); err == nil {
			panic("12 bytes with double etype must be rejected")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAccessValidation(t *testing.T) {
	be := storage.NewMem()
	sh := NewShared(be)
	_, err := mpi.Run(1, func(p *mpi.Proc) {
		f, err := Open(p, sh, Options{})
		if err != nil {
			panic(err)
		}
		buf := make([]byte, 8)
		if _, err := f.WriteAt(-1, 8, datatype.Byte, buf); err == nil {
			panic("negative offset accepted")
		}
		if _, err := f.WriteAt(0, 8, nil, buf); err == nil {
			panic("nil memtype accepted")
		}
		if _, err := f.WriteAt(0, -2, datatype.Byte, buf); err == nil {
			panic("negative count accepted")
		}
		if _, err := f.WriteAt(0, 100, datatype.Byte, buf); err == nil {
			panic("oversized access accepted")
		}
		if n, err := f.WriteAt(0, 0, datatype.Byte, buf); n != 0 || err != nil {
			panic("zero-count write should be a no-op")
		}
		if err := f.SetView(-5, datatype.Byte, datatype.Byte); err == nil {
			panic("negative disp accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mpi.Run(1, func(p *mpi.Proc) {
		if _, err := Open(p, sh, Options{IONodes: 5}); err == nil {
			panic("IONodes > P accepted")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveWriteReadPartitioned(t *testing.T) {
	// The headline scenario: P ranks write the whole file through
	// interleaved fileviews with one collective call each.
	for _, P := range []int{1, 2, 4, 8} {
		for _, nIOP := range []int{0, 1} {
			t.Run(fmt.Sprintf("P=%d,IOP=%d", P, nIOP), func(t *testing.T) {
				const blockcount, blocklen = 64, 8
				a, b := runBoth(t, P, Options{CollBufSize: 256, IONodes: nIOP}, func(f *File) {
					rank := f.Proc().Rank()
					P := f.Proc().Size()
					ft := noncontigTypeP(rank, P, blockcount, blocklen)
					if err := f.SetView(0, datatype.Byte, ft); err != nil {
						panic(err)
					}
					d := int64(blockcount * blocklen)
					data := pattern(rank, d)
					if _, err := f.WriteAtAll(0, d, datatype.Byte, data); err != nil {
						panic(err)
					}
					got := make([]byte, d)
					if _, err := f.ReadAtAll(0, d, datatype.Byte, got); err != nil {
						panic(err)
					}
					if !bytes.Equal(got, data) {
						panic(fmt.Sprintf("rank %d collective round trip failed", rank))
					}
				})
				requireEqualFiles(t, a, b)
				// Verify interleaving on the raw file.
				raw := a.Bytes()
				if int64(len(raw)) != int64(P)*blockcount*blocklen {
					t.Fatalf("file size %d", len(raw))
				}
				for r := 0; r < P; r++ {
					want := pattern(r, blockcount*blocklen)
					for blk := int64(0); blk < blockcount; blk++ {
						off := blk*int64(P)*blocklen + int64(r)*blocklen
						if !bytes.Equal(raw[off:off+blocklen], want[blk*blocklen:(blk+1)*blocklen]) {
							t.Fatalf("rank %d block %d landed wrong", r, blk)
						}
					}
				}
			})
		}
	}
}

func TestCollectiveFullCoverageSkipsPreRead(t *testing.T) {
	const P = 4
	for _, eng := range []Engine{Listless, ListBased} {
		be := storage.NewInstrumented(storage.NewMem())
		sh := NewShared(be)
		var skipped int64
		_, err := mpi.Run(P, func(p *mpi.Proc) {
			f, err := Open(p, sh, Options{Engine: eng, CollBufSize: 512})
			if err != nil {
				panic(err)
			}
			ft := noncontigTypeP(p.Rank(), P, 32, 16)
			if err := f.SetView(0, datatype.Byte, ft); err != nil {
				panic(err)
			}
			d := int64(32 * 16)
			if _, err := f.WriteAtAll(0, d, datatype.Byte, pattern(p.Rank(), d)); err != nil {
				panic(err)
			}
			if p.Rank() == 0 {
				skipped = f.Stats.PreReadsSkipped
			}
			f.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
		if skipped == 0 {
			t.Errorf("%v: full-coverage write performed pre-reads", eng)
		}
		if st := be.Stats(); st.Reads != 0 {
			t.Errorf("%v: %d backend reads during fully covering collective write", eng, st.Reads)
		}
	}
}

func TestCollectivePartialCoverageReadsFirst(t *testing.T) {
	// Only half the ranks write: windows are not covered, pre-reads must
	// happen, and existing file content in the gaps must survive.
	const P = 4
	for _, eng := range []Engine{Listless, ListBased} {
		base := storage.NewMem()
		orig := pattern(42, 4*32*16)
		base.WriteAt(orig, 0)
		sh := NewShared(base)
		_, err := mpi.Run(P, func(p *mpi.Proc) {
			f, err := Open(p, sh, Options{Engine: eng, CollBufSize: 512})
			if err != nil {
				panic(err)
			}
			ft := noncontigTypeP(p.Rank(), P, 32, 16)
			if err := f.SetView(0, datatype.Byte, ft); err != nil {
				panic(err)
			}
			var d int64
			var data []byte
			if p.Rank()%2 == 0 {
				d = 32 * 16
				data = pattern(p.Rank(), d)
			}
			if _, err := f.WriteAtAll(0, d, datatype.Byte, data); err != nil {
				panic(err)
			}
			f.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
		raw := base.Bytes()
		for r := 0; r < P; r++ {
			want := pattern(r, 32*16)
			for blk := int64(0); blk < 32; blk++ {
				off := blk*int64(P)*16 + int64(r)*16
				var exp []byte
				if r%2 == 0 {
					exp = want[blk*16 : (blk+1)*16]
				} else {
					exp = orig[off : off+16] // untouched
				}
				if !bytes.Equal(raw[off:off+16], exp) {
					t.Fatalf("%v: rank %d block %d corrupted", eng, r, blk)
				}
			}
		}
	}
}

func TestCollectiveDifferingDisplacements(t *testing.T) {
	// Each rank uses a *different* displacement: the views are not
	// compared, so the listless engine pre-reads and must stay correct.
	const P = 3
	a, b := runBoth(t, P, Options{CollBufSize: 128}, func(f *File) {
		rank := f.Proc().Rank()
		ft, err := datatype.Hvector(16, 8, int64(P)*8, datatype.Byte)
		if err != nil {
			panic(err)
		}
		ftv, err := datatype.Resized(ft, 0, 16*int64(P)*8)
		if err != nil {
			panic(err)
		}
		if err := f.SetView(int64(rank)*8, datatype.Byte, ftv); err != nil {
			panic(err)
		}
		d := int64(16 * 8)
		data := pattern(rank, d)
		if _, err := f.WriteAtAll(0, d, datatype.Byte, data); err != nil {
			panic(err)
		}
		got := make([]byte, d)
		if _, err := f.ReadAtAll(0, d, datatype.Byte, got); err != nil {
			panic(err)
		}
		if !bytes.Equal(got, data) {
			panic("differing-disp round trip failed")
		}
	})
	requireEqualFiles(t, a, b)
}

func TestCollectiveNcMemtype(t *testing.T) {
	// nc-nc collective: strided memtype and strided fileview.
	const P = 4
	memt, err := datatype.Hvector(32, 16, 24, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	a, b := runBoth(t, P, Options{CollBufSize: 300}, func(f *File) {
		rank := f.Proc().Rank()
		ft := noncontigTypeP(rank, P, 32, 16)
		if err := f.SetView(0, datatype.Byte, ft); err != nil {
			panic(err)
		}
		buf := pattern(rank, memt.Extent()+16)
		if _, err := f.WriteAtAll(0, 1, memt, buf); err != nil {
			panic(err)
		}
		got := make([]byte, len(buf))
		if _, err := f.ReadAtAll(0, 1, memt, got); err != nil {
			panic(err)
		}
		for i := int64(0); i < 32; i++ {
			off := i * 24
			if !bytes.Equal(got[off:off+16], buf[off:off+16]) {
				panic(fmt.Sprintf("rank %d: nc-nc block %d mismatch", rank, i))
			}
		}
	})
	requireEqualFiles(t, a, b)
}

func TestCollectiveSomeRanksIdle(t *testing.T) {
	// Ranks with count 0 still participate collectively.
	const P = 4
	a, b := runBoth(t, P, Options{}, func(f *File) {
		rank := f.Proc().Rank()
		ft := noncontigTypeP(rank, P, 8, 8)
		if err := f.SetView(0, datatype.Byte, ft); err != nil {
			panic(err)
		}
		var d int64
		var data []byte
		if rank == 1 {
			d = 64
			data = pattern(rank, 64)
		}
		if _, err := f.WriteAtAll(0, d, datatype.Byte, data); err != nil {
			panic(err)
		}
		got := make([]byte, max(int(d), 1))
		if _, err := f.ReadAtAll(0, d, datatype.Byte, got[:d]); err != nil {
			panic(err)
		}
		if rank == 1 && !bytes.Equal(got[:d], data) {
			panic("active rank round trip failed")
		}
	})
	requireEqualFiles(t, a, b)
}

func TestCollectiveAllIdle(t *testing.T) {
	a, b := runBoth(t, 3, Options{}, func(f *File) {
		if _, err := f.WriteAtAll(0, 0, datatype.Byte, nil); err != nil {
			panic(err)
		}
		if _, err := f.ReadAtAll(0, 0, datatype.Byte, nil); err != nil {
			panic(err)
		}
	})
	requireEqualFiles(t, a, b)
}

func TestCollectiveMultipleRounds(t *testing.T) {
	// Several collective writes at increasing offsets (the BTIO pattern:
	// one write per time step), each at its step's explicit offset.
	const P = 4
	const steps = 5
	a, b := runBoth(t, P, Options{CollBufSize: 1024}, func(f *File) {
		rank := f.Proc().Rank()
		ft := noncontigTypeP(rank, P, 16, 32)
		if err := f.SetView(0, datatype.Byte, ft); err != nil {
			panic(err)
		}
		d := int64(16 * 32)
		for s := 0; s < steps; s++ {
			data := pattern(rank+s*17, d)
			if _, err := f.WriteAtAll(int64(s)*d, d, datatype.Byte, data); err != nil {
				panic(err)
			}
		}
		for s := 0; s < steps; s++ {
			want := pattern(rank+s*17, d)
			got := make([]byte, d)
			if _, err := f.ReadAtAll(int64(s)*d, d, datatype.Byte, got); err != nil {
				panic(err)
			}
			if !bytes.Equal(got, want) {
				panic(fmt.Sprintf("rank %d step %d mismatch", rank, s))
			}
		}
	})
	requireEqualFiles(t, a, b)
}

func TestListlessAblations(t *testing.T) {
	// Disabled view cache and merge check must stay correct.
	for _, o := range []Options{
		{Engine: Listless, DisableViewCache: true},
		{Engine: Listless, DisableMergeCheck: true},
		{Engine: Listless, DisableViewCache: true, DisableMergeCheck: true},
	} {
		const P = 4
		be := storage.NewMem()
		sh := NewShared(be)
		_, err := mpi.Run(P, func(p *mpi.Proc) {
			f, err := Open(p, sh, o)
			if err != nil {
				panic(err)
			}
			ft := noncontigTypeP(p.Rank(), P, 16, 16)
			if err := f.SetView(0, datatype.Byte, ft); err != nil {
				panic(err)
			}
			d := int64(16 * 16)
			data := pattern(p.Rank(), d)
			if _, err := f.WriteAtAll(0, d, datatype.Byte, data); err != nil {
				panic(err)
			}
			got := make([]byte, d)
			if _, err := f.ReadAtAll(0, d, datatype.Byte, got); err != nil {
				panic(err)
			}
			if !bytes.Equal(got, data) {
				panic("ablation round trip failed")
			}
			f.Close()
		})
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
	}
}

func TestStatsReflectEngineDifferences(t *testing.T) {
	const P = 4
	const blockcount, blocklen = 256, 8
	stats := map[Engine]Stats{}
	for _, eng := range []Engine{Listless, ListBased} {
		be := storage.NewMem()
		sh := NewShared(be)
		var s Stats
		_, err := mpi.Run(P, func(p *mpi.Proc) {
			f, err := Open(p, sh, Options{Engine: eng})
			if err != nil {
				panic(err)
			}
			ft := noncontigTypeP(p.Rank(), P, blockcount, blocklen)
			if err := f.SetView(0, datatype.Byte, ft); err != nil {
				panic(err)
			}
			d := int64(blockcount * blocklen)
			if _, err := f.WriteAtAll(0, d, datatype.Byte, pattern(p.Rank(), d)); err != nil {
				panic(err)
			}
			if p.Rank() == 0 {
				s = f.Stats
			}
			f.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
		stats[eng] = s
	}
	lb, ll := stats[ListBased], stats[Listless]
	if lb.ListTuples == 0 || lb.ListBytesSent == 0 {
		t.Errorf("list-based stats show no list work: %+v", lb)
	}
	if ll.ListTuples != 0 || ll.ListBytesSent != 0 {
		t.Errorf("listless engine built/sent ol-lists: %+v", ll)
	}
	if ll.ViewBytesSent == 0 {
		t.Errorf("listless engine exchanged no views: %+v", ll)
	}
	if ll.ViewBytesSent >= lb.ListBytesSent {
		t.Errorf("view exchange (%d B) not smaller than list exchange (%d B)",
			ll.ViewBytesSent, lb.ListBytesSent)
	}
}

func TestViewCachePersistsAcrossAccesses(t *testing.T) {
	// ViewBytesSent must not grow with the number of collective accesses
	// when caching is on, and must grow when it is off.
	const P = 2
	for _, disable := range []bool{false, true} {
		be := storage.NewMem()
		sh := NewShared(be)
		var first, after int64
		_, err := mpi.Run(P, func(p *mpi.Proc) {
			f, err := Open(p, sh, Options{Engine: Listless, DisableViewCache: disable})
			if err != nil {
				panic(err)
			}
			ft := noncontigTypeP(p.Rank(), P, 8, 8)
			if err := f.SetView(0, datatype.Byte, ft); err != nil {
				panic(err)
			}
			d := int64(64)
			data := pattern(p.Rank(), 64)
			if _, err := f.WriteAtAll(0, d, datatype.Byte, data); err != nil {
				panic(err)
			}
			if p.Rank() == 0 {
				first = f.Stats.ViewBytesSent
			}
			for i := 0; i < 3; i++ {
				if _, err := f.WriteAtAll(0, d, datatype.Byte, data); err != nil {
					panic(err)
				}
			}
			if p.Rank() == 0 {
				after = f.Stats.ViewBytesSent
			}
			f.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
		if disable && after <= first {
			t.Error("with caching disabled, view bytes must grow per access")
		}
		if !disable && after != first {
			t.Errorf("with caching enabled, view bytes grew: %d -> %d", first, after)
		}
	}
}
