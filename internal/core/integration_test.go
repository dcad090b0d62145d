package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/storage"
)

// Integration tests across storage backends and option combinations.

func TestFileBackendEndToEnd(t *testing.T) {
	world{P: 4, backend: "file", opts: Options{Engine: Listless, CollBufSize: 4096}}.roundTrip(t, access{view: fig4(4, 64, 32), d: 64 * 32})
}

// TestThrottledBackendEndToEnd: the per-call latency of a slow file
// system composes with the full stack — sieving accesses of two ranks
// leave the oracle's bytes, and take at least the latency of every
// backend call they made.
func TestThrottledBackendEndToEnd(t *testing.T) {
	start := time.Now()
	res := world{P: 2, backend: "throttled", opts: Options{SieveBufSize: 4096}}.roundTrip(t, access{view: fig4(2, 1024, 8), d: 1024 * 8, indep: true})
	calls := res.inst.Reads + res.inst.Writes
	if d, want := time.Since(start), time.Duration(calls)*50*time.Microsecond-200*time.Microsecond; calls < 8 || d < want {
		t.Fatalf("%d backend calls took %v, want at least %v: latency not charged", calls, d, want)
	}
}

// TestFlattenCacheReusedAcrossSetView: ROMIO stores the ol-list on the
// datatype, so re-installing a view with the same filetype does not
// re-flatten.
func TestFlattenCacheReusedAcrossSetView(t *testing.T) {
	world{P: 1, opts: Options{Engine: ListBased}}.run(t, nil, func(r rank) {
		ft := noncontigTypeP(0, 2, 1000, 8)
		var tuples []int64
		for i := 0; i < 4; i++ {
			if err := r.f.SetView(0, datatype.Byte, ft); err != nil {
				panic(err)
			}
			tuples = append(tuples, r.f.Stats.ListTuples)
		}
		if tuples[0] == 0 || tuples[3] != tuples[0] {
			panic("the first SetView built no list, or a repeated one with the same filetype re-flattened")
		}
	})
}

// TestSetViewSwitchingTypes: bytes written through one view and read
// through another, the plain byte view, are the same file bytes.
func TestSetViewSwitchingTypes(t *testing.T) {
	const P, d = 2, 32 * 8
	data := [][]byte{pattern(0, d), pattern(1, d)}
	o := flat(fig4(P, 32, 8), nil, 0, data)
	for _, eng := range engines {
		world{P: P, opts: Options{Engine: eng}}.run(t, o.file, func(r rank) {
			if err := r.f.SetView(0, datatype.Byte, noncontigTypeP(r.p.Rank(), P, 32, 8)); err != nil {
				panic(err)
			}
			if _, err := r.f.WriteAtAll(0, d, datatype.Byte, data[r.p.Rank()]); err != nil {
				panic(err)
			}
			if err := r.f.SetView(0, datatype.Byte, datatype.Byte); err != nil {
				panic(err)
			}
			whole := make([]byte, len(o.file))
			if _, err := r.f.ReadAt(0, int64(len(whole)), datatype.Byte, whole); err != nil || !bytes.Equal(whole, o.file) {
				panic("a byte-view read disagrees with the typed write")
			}
		})
	}
}

// TestBigBlocksWithTinyBuffers is buffer-limit handling (§3.2.2): a
// file buffer smaller than a single contiguous block, a pack buffer
// smaller than the file buffer, independently and collectively.
func TestBigBlocksWithTinyBuffers(t *testing.T) {
	mt := hvecBytes(4, 128, 160)
	for _, eng := range engines {
		for _, indep := range []bool{true, false} {
			world{P: 2, opts: Options{Engine: eng, SieveBufSize: 48, PackBufSize: 16, CollBufSize: 64}}.roundTrip(t,
				access{view: fig4(2, 4, 128), d: 4 * 128, indep: indep, mem: func(int) *datatype.Type { return mt }})
		}
	}
}

// TestManySmallIndependentAccesses stresses the positioning paths: many
// reads at scattered etype offsets within the view.
func TestManySmallIndependentAccesses(t *testing.T) {
	view := fig4(3, 64, 8) // every 3rd 8-byte block
	full := pattern(5, 64*8)
	o := flat(view, nil, 0, [][]byte{full})
	for _, eng := range engines {
		res := world{P: 1, opts: Options{Engine: eng, SieveBufSize: 128}}.run(t, o.file, func(r rank) {
			_, ft := view(0)
			if err := r.f.SetView(0, datatype.Byte, ft); err != nil {
				panic(err)
			}
			if _, err := r.f.WriteAt(0, 64*8, datatype.Byte, full); err != nil {
				panic(err)
			}
			for i := 0; i < 50; i++ {
				off, n := int64((i*37)%500), int64(1+(i*13)%12)
				got := make([]byte, n)
				if _, err := r.f.ReadAt(off, n, datatype.Byte, got); err != nil || !bytes.Equal(got, full[off:off+n]) {
					panic("scattered read mismatch")
				}
			}
		})
		if !bytes.Equal(res.file, o.file) {
			t.Errorf("%v: the file differs from the oracle", eng)
		}
	}
}

// TestTwoWorldsTwoFiles: two worlds run at once in one process, each
// with its own Shared over its own Mem, and both draw on the process-wide
// program cache and buffer pool (Options.Pool nil).  Each file must hold
// its own world's bytes and nothing of the other's.
func TestTwoWorldsTwoFiles(t *testing.T) {
	const P, d = 2, 16 * 8
	for _, eng := range engines {
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
					if err := f.SetView(0, datatype.Byte, noncontigTypeP(p.Rank(), P, 16, 8)); err != nil {
						panic(err)
					}
					data, got := pattern(g*P+p.Rank(), d), make([]byte, d)
					if _, err := f.WriteAtAll(0, d, datatype.Byte, data); err != nil {
						panic(err)
					}
					if _, err := f.ReadAtAll(0, d, datatype.Byte, got); err != nil || !bytes.Equal(got, data) {
						panic("round trip differs")
					}
				})
			}(g)
		}
		wg.Wait()
		for g, be := range backends {
			o := flat(fig4(P, 16, 8), nil, 0, [][]byte{pattern(g*P, d), pattern(g*P+1, d)})
			if errs[g] != nil || !bytes.Equal(be.Bytes(), o.file[:P*d]) {
				t.Fatalf("%v: world %d: %v, or its file differs from its oracle", eng, g, errs[g])
			}
		}
	}
}
