// Package repro's root benchmark suite regenerates reduced-size versions
// of every table and figure of the paper's evaluation as testing.B
// benchmarks, plus ablation benchmarks for the design choices called out
// in DESIGN.md §5.  The full-size experiments are run by cmd/figures.
package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/btio"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/flatten"
	"repro/internal/fotf"
	"repro/internal/mpi"
	"repro/internal/noncontig"
	"repro/internal/storage"
)

var engines = []core.Engine{core.ListBased, core.Listless}

func benchNoncontig(b *testing.B, cfg noncontig.Config) {
	b.Helper()
	// Amortize world setup over enough repetitions that the measured
	// time is dominated by the I/O path, not by goroutine spawning.
	reps := int64(4<<20) / cfg.DataPerProc()
	if reps < 1 {
		reps = 1
	}
	if reps > 64 {
		reps = 64
	}
	cfg.Reps = int(reps)
	cfg.Verify = false
	b.SetBytes(2 * cfg.DataPerProc() * reps) // writes + reads per iteration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := noncontig.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 is the independent-access vector-length sweep
// (S_block = 8 B, P = 2) of Figure 5.
func BenchmarkFig5(b *testing.B) {
	for _, eng := range engines {
		for _, pat := range []noncontig.Pattern{noncontig.NcNc, noncontig.NcC, noncontig.CNc} {
			for _, nblock := range []int64{16, 1024, 16384} {
				b.Run(fmt.Sprintf("%s/%s/Nblock=%d", eng, pat, nblock), func(b *testing.B) {
					benchNoncontig(b, noncontig.Config{
						P: 2, Blockcount: nblock, Blocklen: 8,
						Pattern: pat, Engine: eng,
					})
				})
			}
		}
	}
}

// BenchmarkFig6 is the collective-access vector-length sweep
// (S_block = 8 B, P = 8) of Figure 6.
func BenchmarkFig6(b *testing.B) {
	for _, eng := range engines {
		for _, pat := range []noncontig.Pattern{noncontig.NcNc, noncontig.NcC, noncontig.CNc} {
			for _, nblock := range []int64{16, 1024, 16384} {
				b.Run(fmt.Sprintf("%s/%s/Nblock=%d", eng, pat, nblock), func(b *testing.B) {
					benchNoncontig(b, noncontig.Config{
						P: 8, Blockcount: nblock, Blocklen: 8,
						Pattern: pat, Collective: true, Engine: eng,
					})
				})
			}
		}
	}
}

// BenchmarkFig7 is the independent-access blocksize sweep
// (N_block = 8, P = 2) of Figure 7.
func BenchmarkFig7(b *testing.B) {
	for _, eng := range engines {
		for _, pat := range []noncontig.Pattern{noncontig.NcNc, noncontig.NcC, noncontig.CNc} {
			for _, sblock := range []int64{8, 512, 16384} {
				b.Run(fmt.Sprintf("%s/%s/Sblock=%d", eng, pat, sblock), func(b *testing.B) {
					benchNoncontig(b, noncontig.Config{
						P: 2, Blockcount: 8, Blocklen: sblock,
						Pattern: pat, Engine: eng,
					})
				})
			}
		}
	}
}

// BenchmarkFig8 is the collective-access process-count sweep
// (S_block = 2048 B, N_block = 64) of Figure 8.
func BenchmarkFig8(b *testing.B) {
	for _, eng := range engines {
		for _, p := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/P=%d", eng, p), func(b *testing.B) {
				benchNoncontig(b, noncontig.Config{
					P: p, Blockcount: 64, Blocklen: 2048,
					Pattern: noncontig.NcNc, Collective: true, Engine: eng,
				})
			})
		}
	}
}

// BenchmarkTable3 runs the BTIO kernel (Table 3) at reduced size:
// classes S and W, 2 steps per iteration.  cmd/figures runs classes B/C.
func BenchmarkTable3(b *testing.B) {
	for _, eng := range engines {
		for _, class := range []string{"S", "W"} {
			cl, err := btio.ClassByName(class)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/class%s/P=4", eng, class), func(b *testing.B) {
				cfg := btio.Config{
					Class: cl, P: 4, Engine: eng,
					Steps: 2, Ghost: 1, ComputeIters: 0,
				}
				b.SetBytes(cfg.DRun())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := btio.Run(cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationCopy isolates the copy primitive: packing a strided
// buffer via flattening-on-the-fly run groups versus walking an ol-list
// tuple by tuple (DESIGN.md ablation 3).
func BenchmarkAblationCopy(b *testing.B) {
	for _, blocklen := range []int64{8, 64, 1024} {
		count := int64((1 << 20) / blocklen) // ~1 MiB of data
		dt, err := datatype.Hvector(count, blocklen, 2*blocklen, datatype.Byte)
		if err != nil {
			b.Fatal(err)
		}
		src := make([]byte, dt.Extent())
		dst := make([]byte, dt.Size())
		b.Run(fmt.Sprintf("listless/Sblock=%d", blocklen), func(b *testing.B) {
			b.SetBytes(dt.Size())
			for i := 0; i < b.N; i++ {
				fotf.PackCount(dst, src, 1, dt, 0)
			}
		})
		b.Run(fmt.Sprintf("list-based/Sblock=%d", blocklen), func(b *testing.B) {
			l := flatten.Flatten(dt)
			b.SetBytes(dt.Size())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				flatten.PackList(dst, src, l, dt.Extent(), 1, 0, dt.Size())
			}
		})
	}
}

// BenchmarkAblationSeek isolates positioning: O(depth) navigation versus
// linear ol-list traversal at random offsets in a large fileview
// (DESIGN.md ablation 4).
func BenchmarkAblationSeek(b *testing.B) {
	const nblock = 1 << 16
	dt, err := datatype.Hvector(nblock, 8, 16, datatype.Byte)
	if err != nil {
		b.Fatal(err)
	}
	offs := make([]int64, 1024)
	r := rand.New(rand.NewSource(1))
	for i := range offs {
		offs[i] = r.Int63n(dt.Size())
	}
	b.Run("listless", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fotf.StartPos(dt, offs[i%len(offs)])
		}
	})
	b.Run("list-based", func(b *testing.B) {
		v := flatten.NewView(0, dt)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.DataToFile(offs[i%len(offs)])
		}
	})
}

// BenchmarkAblationViewCache measures fileview caching: listless
// collective writes with the cache on versus re-exchanging the encoded
// views on every access (DESIGN.md ablation 1).
func BenchmarkAblationViewCache(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "cached"
		if disable {
			name = "per-access-exchange"
		}
		b.Run(name, func(b *testing.B) {
			benchNoncontig(b, noncontig.Config{
				P: 4, Blockcount: 4096, Blocklen: 8,
				Pattern: noncontig.NcNc, Collective: true,
				Engine:  core.Listless,
				Options: core.Options{DisableViewCache: disable},
			})
		})
	}
}

// BenchmarkAblationMergeview measures the collective-write pre-read
// optimization: fully covering writes with and without the coverage
// check (DESIGN.md ablation 2).
func BenchmarkAblationMergeview(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "merge-check"
		if disable {
			name = "always-preread"
		}
		b.Run(name, func(b *testing.B) {
			benchNoncontig(b, noncontig.Config{
				P: 4, Blockcount: 8192, Blocklen: 64,
				Pattern: noncontig.CNc, Collective: true,
				Engine:  core.Listless,
				Options: core.Options{DisableMergeCheck: disable},
			})
		})
	}
}

// BenchmarkAblationSieveBuf sweeps the data-sieving buffer size for
// independent non-contiguous access (DESIGN.md ablation 5).
func BenchmarkAblationSieveBuf(b *testing.B) {
	for _, size := range []int{16 << 10, 128 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("sievebuf=%dKiB", size>>10), func(b *testing.B) {
			benchNoncontig(b, noncontig.Config{
				P: 2, Blockcount: 16384, Blocklen: 8,
				Pattern: noncontig.CNc, Engine: core.Listless,
				Options: core.Options{SieveBufSize: size},
			})
		})
	}
}

// BenchmarkMPIPingPong characterizes the substrate's message latency so
// bandwidth numbers can be put in context.
func BenchmarkMPIPingPong(b *testing.B) {
	for _, size := range []int{64, 64 << 10} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			payload := make([]byte, size)
			_, err := mpi.Run(2, func(p *mpi.Proc) {
				for i := 0; i < b.N; i++ {
					if p.Rank() == 0 {
						p.Send(1, 1, payload)
						p.Recv(1, 2)
					} else {
						p.Recv(0, 1)
						p.Send(0, 2, payload)
					}
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkStorageBackends characterizes the backends' contiguous
// bandwidth — the c-c baseline every non-contiguous result is relative
// to.
func BenchmarkStorageBackends(b *testing.B) {
	const size = 1 << 20
	buf := make([]byte, size)
	b.Run("mem-write", func(b *testing.B) {
		m := storage.NewMem()
		b.SetBytes(size)
		for i := 0; i < b.N; i++ {
			if _, err := m.WriteAt(buf, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mem-read", func(b *testing.B) {
		m := storage.NewMem()
		m.WriteAt(buf, 0)
		b.SetBytes(size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := storage.ReadFull(m, buf, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationIONodes sweeps the aggregator count of two-phase
// collective I/O (ROMIO's cb_nodes hint).
func BenchmarkAblationIONodes(b *testing.B) {
	for _, nodes := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ionodes=%d", nodes), func(b *testing.B) {
			benchNoncontig(b, noncontig.Config{
				P: 8, Blockcount: 2048, Blocklen: 64,
				Pattern: noncontig.NcNc, Collective: true,
				Engine:  core.Listless,
				Options: core.Options{IONodes: nodes},
			})
		})
	}
}

// BenchmarkAblationSieveVsDirect compares data sieving against the
// direct per-block access alternative on accesses of varying density —
// the trade-off the paper's outlook (§5) raises, implemented via
// Options.SieveDensity.
func BenchmarkAblationSieveVsDirect(b *testing.B) {
	// gap multiplies the stride: gap=2 → 50% dense, gap=128 → sparse.
	for _, gap := range []int64{2, 16, 128} {
		for _, mode := range []string{"sieve", "direct"} {
			b.Run(fmt.Sprintf("gap=%d/%s", gap, mode), func(b *testing.B) {
				var density float64
				if mode == "direct" {
					density = 1.0 // threshold above any density: always direct
				}
				be := storage.NewMem()
				sh := core.NewShared(be)
				dt, err := datatype.Hvector(4096, 64, 64*gap, datatype.Byte)
				if err != nil {
					b.Fatal(err)
				}
				d := dt.Size()
				data := make([]byte, d)
				b.SetBytes(2 * d)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, err := mpi.Run(1, func(p *mpi.Proc) {
						f, err := core.Open(p, sh, core.Options{SieveDensity: density})
						if err != nil {
							panic(err)
						}
						defer f.Close()
						if err := f.SetView(0, datatype.Byte, dt); err != nil {
							panic(err)
						}
						if _, err := f.WriteAt(0, d, datatype.Byte, data); err != nil {
							panic(err)
						}
						if _, err := f.ReadAt(0, d, datatype.Byte, data); err != nil {
							panic(err)
						}
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
