package btio

import "math"

// Analytic characterization of BTIO's data volume and access pattern,
// reproducing Tables 1 and 2 of the paper.

// DStep returns the bytes written per time step: the whole 5×N³ array of
// doubles (Table 1).
func (c Config) DStep() int64 {
	n := int64(c.Class.Grid)
	return int64(cellBytes) * n * n * n
}

// DRun returns the bytes written over the whole run (Table 1,
// D_run = N_step · D_step).
func (c Config) DRun() int64 {
	return int64(c.steps()) * c.DStep()
}

// NBlock returns the per-process number of disjoint contiguous file
// blocks per step, ⌊N²/q⌋ — the N_block column of Table 2.
func (c Config) NBlock() (int64, error) {
	q, err := c.Q()
	if err != nil {
		return 0, err
	}
	n := int64(c.Class.Grid)
	return n * n / int64(q), nil
}

// SBlock returns the (average) contiguous block size in bytes,
// cellBytes·N/q — the S_block column of Table 2.
func (c Config) SBlock() (int64, error) {
	q, err := c.Q()
	if err != nil {
		return 0, err
	}
	return int64(cellBytes) * int64(c.Class.Grid) / int64(q), nil
}

func float64frombits(u uint64) float64 { return math.Float64frombits(u) }
func uint64frombits(v float64) uint64  { return math.Float64bits(v) }
