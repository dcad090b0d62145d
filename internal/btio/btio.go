// Package btio implements the BTIO application-kernel benchmark of the
// paper's §4.2: the I/O pattern of the NAS Parallel Benchmarks BT solver
// with MPI-IO ("full" subarray-datatype mode), plus a representative
// BT-like compute kernel that provides the no-I/O baseline time.
//
// The solution array is u(5, N, N, N) of float64 in Fortran order (the 5
// solution components vary fastest).  BT's diagonal multipartitioning
// assigns each of the P = q² processes q cells, one per z-slab, such
// that every slab's q×q cells are covered exactly once.  Each process
// writes its cells with a single collective call per time step through a
// fileview built from subarray datatypes; successive steps append whole
// array snapshots (D_run = N_step · D_step).
//
// The resulting access pattern per process — N_block ≈ N²/q contiguous
// runs of S_block ≈ 40·N/q bytes — reproduces Table 2 of the paper
// exactly (see analytics.go and the tests).
package btio

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/storage"
)

// Class is a NAS problem class.
type Class struct {
	Name string
	Grid int // N: the array is 5 × N × N × N doubles
}

// The NAS BT problem classes.
var Classes = []Class{
	{Name: "S", Grid: 12},
	{Name: "W", Grid: 24},
	{Name: "A", Grid: 64},
	{Name: "B", Grid: 102},
	{Name: "C", Grid: 162},
}

// ClassByName looks up a class by its NAS letter.
func ClassByName(name string) (Class, error) {
	for _, c := range Classes {
		if c.Name == name {
			return c, nil
		}
	}
	return Class{}, fmt.Errorf("btio: unknown class %q", name)
}

// DefaultSteps is BTIO's default number of time steps (each followed by
// a collective write of the full array).
const DefaultSteps = 40

// cellBytes is the size of one grid cell: 5 doubles.
const cellBytes = 5 * 8

// Config parameterizes one BTIO run.
type Config struct {
	Class  Class
	P      int // must be a perfect square
	Engine core.Engine
	Steps  int // 0 → DefaultSteps
	// Ghost is the halo width of the local cell arrays; a non-zero value
	// makes the memtype non-contiguous, as in the real BT code.
	Ghost int
	// ComputeIters is the number of stencil sweeps per step (0 disables
	// compute entirely; then TCompute is ~0).
	ComputeIters int
	Verify       bool

	Options core.Options
	Backend storage.Backend
}

func (c Config) steps() int {
	if c.Steps > 0 {
		return c.Steps
	}
	return DefaultSteps
}

// Q returns sqrt(P), the process-grid side.
func (c Config) Q() (int, error) {
	q := int(math.Round(math.Sqrt(float64(c.P))))
	if q*q != c.P || q <= 0 {
		return 0, fmt.Errorf("btio: P=%d is not a positive square", c.P)
	}
	return q, nil
}

// Result carries the measured times of one run.
type Result struct {
	Config   Config
	Steps    int
	TCompute time.Duration // max across ranks: time in the compute kernel
	TIO      time.Duration // max across ranks: time in collective writes
	// Bandwidth is the effective I/O bandwidth D_written/TIO in MB/s.
	Bandwidth float64
	// BytesWritten is the actual volume written (Steps × DStep).
	BytesWritten int64
	Stats        core.Stats
	Verified     bool
}

// Run executes the benchmark: per step, optional compute sweeps on the
// local cells, then one collective write of the whole array; finally an
// optional collective read-back verification of the last snapshot.
func Run(cfg Config) (Result, error) {
	q, err := cfg.Q()
	if err != nil {
		return Result{}, err
	}
	N := cfg.Class.Grid
	if N < q {
		return Result{}, fmt.Errorf("btio: grid %d smaller than process grid side %d", N, q)
	}
	steps := cfg.steps()
	be := cfg.Backend
	if be == nil {
		be = storage.NewMem()
	}
	// Pre-size the file so backend growth (reallocation of a growing
	// in-memory store, block allocation on disk) is not charged to the
	// first engine measured.
	if total := int64(steps) * cfg.DStep(); be.Size() < total {
		if err := be.Truncate(total); err != nil {
			return Result{}, err
		}
	}
	sh := core.NewShared(be)
	opts := cfg.Options
	opts.Engine = cfg.Engine

	arrayBytes := int64(cellBytes) * int64(N) * int64(N) * int64(N)

	var computeNs, ioNs int64
	var rank0Stats core.Stats
	verified := true

	_, err = mpi.Run(cfg.P, func(p *mpi.Proc) {
		dec := newDecomp(N, q, p.Rank(), cfg.Ghost)

		f, err := core.Open(p, sh, opts)
		if err != nil {
			panic(err)
		}
		defer f.Close()

		ft, err := dec.filetype()
		if err != nil {
			panic(err)
		}
		if err := f.SetView(0, datatype.Double, ft); err != nil {
			panic(err)
		}
		memt, err := dec.memtype()
		if err != nil {
			panic(err)
		}

		u := make([]byte, memt.Extent())
		dec.fill(u, p.Rank())

		myEtypes := ft.Size() / 8 // visible doubles per filetype instance

		var cNs, wNs int64
		for s := 0; s < steps; s++ {
			t0 := time.Now()
			for it := 0; it < cfg.ComputeIters; it++ {
				dec.sweep(u)
			}
			cNs += time.Since(t0).Nanoseconds()

			p.Barrier()
			t1 := time.Now()
			if _, err := f.WriteAtAll(int64(s)*myEtypes, 1, memt, u); err != nil {
				panic(err)
			}
			p.Barrier()
			wNs += time.Since(t1).Nanoseconds()
		}

		if cfg.Verify {
			got := make([]byte, len(u))
			if _, err := f.ReadAtAll(int64(steps-1)*myEtypes, 1, memt, got); err != nil {
				panic(err)
			}
			if !dec.equalInterior(u, got) {
				verified = false
			}
		}

		cMax := p.AllreduceInt64(cNs, mpi.OpMax)
		wMax := p.AllreduceInt64(wNs, mpi.OpMax)
		if p.Rank() == 0 {
			computeNs, ioNs = cMax, wMax
			rank0Stats = f.Stats
		}
	})
	if err != nil {
		return Result{}, err
	}
	if cfg.Verify && !verified {
		return Result{}, fmt.Errorf("btio: read-back verification failed (%+v)", cfg)
	}

	res := Result{
		Config:       cfg,
		Steps:        steps,
		TCompute:     time.Duration(computeNs),
		TIO:          time.Duration(ioNs),
		BytesWritten: int64(steps) * arrayBytes,
		Stats:        rank0Stats,
		Verified:     verified,
	}
	if ioNs > 0 {
		res.Bandwidth = float64(res.BytesWritten) / (float64(ioNs) / 1e9) / 1e6
	}
	return res, nil
}
