// Package bench provides the experiment harness that regenerates every
// table and figure of the paper's evaluation (§4): parameter sweeps over
// the noncontig benchmark for Figures 5–8, the analytic Tables 1–2, and
// the BTIO timing Table 3 — plus text/CSV emitters for the results.
package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/btio"
	"repro/internal/core"
	"repro/internal/noncontig"
)

// Point is one x-position of a figure: per-process bandwidths for write
// and read.
type Point struct {
	X           int64
	Write, Read float64 // MB/s per process
}

// Series is one curve of a figure (e.g. "listless: nc-nc").
type Series struct {
	Name   string
	Points []Point
}

// Figure is a full reproduction of one paper figure.
type Figure struct {
	Name   string // e.g. "Figure 5"
	Title  string
	XLabel string
	Series []Series
}

// Scale selects experiment sizes: Full matches the paper's parameters;
// Quick shrinks sweeps for CI and unit tests.
type Scale int

// The two scales.
const (
	Full Scale = iota
	Quick
)

func (s Scale) String() string {
	if s == Quick {
		return "quick"
	}
	return "full"
}

// sweepValues returns the vector-length sweep of Figures 5 and 6.
func nblockSweep(s Scale) []int64 {
	if s == Quick {
		return []int64{16, 256, 4096}
	}
	return []int64{16, 64, 256, 1024, 4096, 16384}
}

// sblockSweep returns the blocksize sweep of Figure 7.
func sblockSweep(s Scale) []int64 {
	if s == Quick {
		// 4-byte blocks move 32 B per access: per-call overhead and
		// scheduler noise dominate any engine, so the quick sweep (used
		// by assertions in tests) starts at 16 B; the full sweep keeps
		// the paper's 4-byte point.
		return []int64{16, 512, 16384}
	}
	return []int64{4, 16, 64, 256, 1024, 4096, 16384}
}

// figureSeries are the six curves of Figures 5–8.
var figureSeries = []struct {
	engine  core.Engine
	pattern noncontig.Pattern
}{
	{core.ListBased, noncontig.NcNc},
	{core.ListBased, noncontig.NcC},
	{core.ListBased, noncontig.CNc},
	{core.Listless, noncontig.NcNc},
	{core.Listless, noncontig.NcC},
	{core.Listless, noncontig.CNc},
}

func seriesName(e core.Engine, p noncontig.Pattern) string {
	return fmt.Sprintf("%s: %s", e, p)
}

// repsFor picks a repetition count so each point moves enough data for a
// stable wall-clock measurement.
func repsFor(dataPerProc int64, s Scale) int {
	target := int64(8 << 20)
	if s == Quick {
		target = 1 << 20
	}
	r := int(target / dataPerProc)
	if r < 8 {
		r = 8 // floor against wall-clock noise on tiny accesses
	}
	if r > 3000 {
		r = 3000
	}
	return r
}

func runSweep(name, title, xlabel string, xs []int64, s Scale,
	make func(x int64, e core.Engine, p noncontig.Pattern) noncontig.Config) (Figure, error) {
	fig := Figure{Name: name, Title: title, XLabel: xlabel}
	repeats := 2 // best-of-two damps scheduler and GC noise
	if s == Quick {
		repeats = 1
	}
	for _, sv := range figureSeries {
		ser := Series{Name: seriesName(sv.engine, sv.pattern)}
		for _, x := range xs {
			cfg := make(x, sv.engine, sv.pattern)
			var best Point
			for rep := 0; rep < repeats; rep++ {
				res, err := noncontig.Run(cfg)
				if err != nil {
					return Figure{}, fmt.Errorf("%s %s x=%d: %w", name, ser.Name, x, err)
				}
				if res.WriteBpp > best.Write {
					best.Write = res.WriteBpp
				}
				if res.ReadBpp > best.Read {
					best.Read = res.ReadBpp
				}
			}
			best.X = x
			ser.Points = append(ser.Points, best)
		}
		fig.Series = append(fig.Series, ser)
	}
	return fig, nil
}

// Fig5 reproduces Figure 5: independent access bandwidth per process vs
// vector length N_block (S_block = 8 B, P = 2).
func Fig5(s Scale) (Figure, error) {
	return runSweep("Figure 5",
		"Independent write/read Bpp vs N_block (S_block=8B, P=2)",
		"N_block", nblockSweep(s), s,
		func(x int64, e core.Engine, p noncontig.Pattern) noncontig.Config {
			return noncontig.Config{
				P: 2, Blockcount: x, Blocklen: 8,
				Pattern: p, Collective: false, Engine: e,
				Reps: repsFor(x*8, s),
			}
		})
}

// Fig6 reproduces Figure 6: collective access bandwidth per process vs
// vector length N_block (S_block = 8 B, P = 8).
func Fig6(s Scale) (Figure, error) {
	p := 8
	if s == Quick {
		p = 4
	}
	return runSweep("Figure 6",
		fmt.Sprintf("Collective write/read Bpp vs N_block (S_block=8B, P=%d)", p),
		"N_block", nblockSweep(s), s,
		func(x int64, e core.Engine, pt noncontig.Pattern) noncontig.Config {
			return noncontig.Config{
				P: p, Blockcount: x, Blocklen: 8,
				Pattern: pt, Collective: true, Engine: e,
				Reps: repsFor(x*8, s),
			}
		})
}

// Fig7 reproduces Figure 7: independent access bandwidth per process vs
// block size S_block (N_block = 8, P = 2).
func Fig7(s Scale) (Figure, error) {
	return runSweep("Figure 7",
		"Independent write/read Bpp vs S_block (N_block=8, P=2)",
		"S_block [bytes]", sblockSweep(s), s,
		func(x int64, e core.Engine, p noncontig.Pattern) noncontig.Config {
			return noncontig.Config{
				P: 2, Blockcount: 8, Blocklen: x,
				Pattern: p, Collective: false, Engine: e,
				Reps: repsFor(8*x, s),
			}
		})
}

// Fig8 reproduces Figure 8: collective access bandwidth per process vs
// process count P (S_block = 2048 B, N_block = 64).
func Fig8(s Scale) (Figure, error) {
	ps := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if s == Quick {
		ps = []int64{1, 2, 4}
	}
	return runSweep("Figure 8",
		"Collective write/read Bpp vs P (S_block=2048B, N_block=64)",
		"P", ps, s,
		func(x int64, e core.Engine, p noncontig.Pattern) noncontig.Config {
			return noncontig.Config{
				P: int(x), Blockcount: 64, Blocklen: 2048,
				Pattern: p, Collective: true, Engine: e,
				Reps: repsFor(64*2048, s),
			}
		})
}

// Table1Row is one row of Table 1 (BTIO data volumes).
type Table1Row struct {
	Class string
	Grid  int
	DStep int64
	DRun  int64
}

// Table1 reproduces Table 1 for the given classes.
func Table1(classes []string) ([]Table1Row, error) {
	var rows []Table1Row
	for _, name := range classes {
		cl, err := btio.ClassByName(name)
		if err != nil {
			return nil, err
		}
		cfg := btio.Config{Class: cl, P: 4}
		rows = append(rows, Table1Row{
			Class: name, Grid: cl.Grid, DStep: cfg.DStep(), DRun: cfg.DRun(),
		})
	}
	return rows, nil
}

// Table2Row is one row of Table 2 (BTIO access pattern).
type Table2Row struct {
	Class  string
	P      int
	NBlock int64
	SBlock int64
}

// Table2 reproduces Table 2 for the given classes and process counts.
func Table2(classes []string, ps []int) ([]Table2Row, error) {
	var rows []Table2Row
	for _, name := range classes {
		cl, err := btio.ClassByName(name)
		if err != nil {
			return nil, err
		}
		for _, p := range ps {
			cfg := btio.Config{Class: cl, P: p}
			nb, err := cfg.NBlock()
			if err != nil {
				return nil, err
			}
			sb, err := cfg.SBlock()
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table2Row{Class: name, P: p, NBlock: nb, SBlock: sb})
		}
	}
	return rows, nil
}

// Table3Row is one row of Table 3: the BTIO timing comparison.
type Table3Row struct {
	Class      string
	P          int
	Steps      int
	TNoIO      time.Duration // compute-kernel time
	DTListBase time.Duration // Δt_io, list-based
	DTListless time.Duration // Δt_io, listless
	RIO        float64       // Δt_list-based / Δt_listless
	BListBased float64       // effective MB/s
	BListless  float64
}

// Table3Config parameterizes the Table 3 reproduction.
type Table3Config struct {
	Classes      []string
	Ps           []int
	Steps        int // 0 → BTIO default (40)
	ComputeIters int // stencil sweeps per step
	Ghost        int // halo width (BT uses ghosted cells)
	Verify       bool
}

// table3Repeats is how many times Table3 runs each engine, keeping the
// fastest I/O time, to damp GC and scheduler noise.
const table3Repeats = 2

// Table3 runs BTIO under both engines for every (class, P) combination.
func Table3(cfg Table3Config) ([]Table3Row, error) {
	if cfg.Ghost == 0 {
		cfg.Ghost = 1
	}
	var rows []Table3Row
	for _, name := range cfg.Classes {
		cl, err := btio.ClassByName(name)
		if err != nil {
			return nil, err
		}
		for _, p := range cfg.Ps {
			row := Table3Row{Class: name, P: p}
			var results [2]btio.Result
			for i, eng := range []core.Engine{core.ListBased, core.Listless} {
				bc := btio.Config{
					Class: cl, P: p, Engine: eng,
					Steps: cfg.Steps, Ghost: cfg.Ghost,
					ComputeIters: cfg.ComputeIters, Verify: cfg.Verify,
				}
				var best btio.Result
				for rep := 0; rep < table3Repeats; rep++ {
					res, err := btio.Run(bc)
					if err != nil {
						return nil, fmt.Errorf("table 3 class %s P=%d %v: %w", name, p, eng, err)
					}
					if rep == 0 || res.TIO < best.TIO {
						best = res
					}
				}
				results[i] = best
			}
			row.Steps = results[0].Steps
			row.TNoIO = results[1].TCompute
			row.DTListBase = results[0].TIO
			row.DTListless = results[1].TIO
			if results[1].TIO > 0 {
				row.RIO = float64(results[0].TIO) / float64(results[1].TIO)
			}
			row.BListBased = results[0].Bandwidth
			row.BListless = results[1].Bandwidth
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatFigure renders a figure as two aligned text tables (write and
// read panels), one column per series.
func FormatFigure(f Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", f.Name, f.Title)
	for pi, panel := range []string{"write", "read"} {
		fmt.Fprintf(&b, "\n[%s] Bpp in MB/s per process\n", panel)
		fmt.Fprintf(&b, "%12s", f.XLabel)
		for _, s := range f.Series {
			fmt.Fprintf(&b, " %18s", s.Name)
		}
		b.WriteByte('\n')
		if len(f.Series) == 0 {
			continue
		}
		for i := range f.Series[0].Points {
			fmt.Fprintf(&b, "%12d", f.Series[0].Points[i].X)
			for _, s := range f.Series {
				v := s.Points[i].Write
				if pi == 1 {
					v = s.Points[i].Read
				}
				fmt.Fprintf(&b, " %18.2f", v)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// FigureCSV renders a figure as CSV with columns
// x,series,write_mbps,read_mbps.
func FigureCSV(f Figure) string {
	var b strings.Builder
	b.WriteString("x,series,write_mbps,read_mbps\n")
	for _, s := range f.Series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%d,%s,%.3f,%.3f\n", p.X, s.Name, p.Write, p.Read)
		}
	}
	return b.String()
}

// FormatTable1 renders Table 1.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: BTIO data volume per class\n")
	fmt.Fprintf(&b, "%-6s %-14s %12s %12s\n", "Class", "Grid", "D_step", "D_run")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %dx%dx%d %9.0f MB %9.1f GB\n",
			r.Class, r.Grid, r.Grid, r.Grid,
			float64(r.DStep)/1e6, float64(r.DRun)/1e9)
	}
	return b.String()
}

// FormatTable2 renders Table 2.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: BTIO non-contiguous access pattern (S_block in bytes)\n")
	fmt.Fprintf(&b, "%-6s %4s %10s %10s\n", "Class", "P", "N_block", "S_block")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %4d %10d %10d\n", r.Class, r.P, r.NBlock, r.SBlock)
	}
	return b.String()
}

// FormatTable3 renders Table 3.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3: BTIO list-based vs listless I/O (times in seconds, B in MB/s)\n")
	fmt.Fprintf(&b, "%-6s %4s %6s %10s %14s %13s %6s %14s %12s\n",
		"Class", "P", "steps", "t_no-io", "dt_list-based", "dt_listless", "r_io", "B_list-based", "B_listless")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %4d %6d %10.2f %14.3f %13.3f %6.2f %14.0f %12.0f\n",
			r.Class, r.P, r.Steps,
			r.TNoIO.Seconds(), r.DTListBase.Seconds(), r.DTListless.Seconds(),
			r.RIO, r.BListBased, r.BListless)
	}
	return b.String()
}
