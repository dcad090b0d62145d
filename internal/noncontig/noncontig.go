// Package noncontig implements the paper's synthetic benchmark (§4.1):
// a highly configurable write-then-read workload over the Figure-4
// vector-like fileview, measuring per-process bandwidth for the four
// memory/file contiguity combinations, independently or collectively,
// under either datatype engine.
//
// The fileview of process p out of P is
//
//	struct{ LB@0, hvector(blockcount × blocklen, stride P·blocklen)@p·blocklen, UB@extent }
//
// with extent = blockcount·P·blocklen, so the accesses of all processes
// interleave without overlapping and together cover the file densely.
package noncontig

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Pattern selects the memory/file contiguity combination of Figure 1.
type Pattern int

// The four access patterns.
const (
	CC   Pattern = iota // contiguous memory, contiguous file
	NcC                 // non-contiguous memory, contiguous file
	CNc                 // contiguous memory, non-contiguous file
	NcNc                // non-contiguous memory and file
)

func (p Pattern) String() string {
	switch p {
	case CC:
		return "c-c"
	case NcC:
		return "nc-c"
	case CNc:
		return "c-nc"
	case NcNc:
		return "nc-nc"
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// ParsePattern parses the paper's pattern names (c-c, nc-c, c-nc, nc-nc).
func ParsePattern(s string) (Pattern, error) {
	for _, p := range []Pattern{CC, NcC, CNc, NcNc} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("noncontig: unknown pattern %q", s)
}

// Config parameterizes one benchmark run.
type Config struct {
	P          int     // number of processes
	Blockcount int64   // N_block: blocks per process
	Blocklen   int64   // S_block: bytes per block
	Pattern    Pattern // memory/file contiguity combination
	Collective bool    // collective vs independent access
	Engine     core.Engine
	Reps       int  // write+read repetitions (default 1)
	Verify     bool // read-back verification on the first repetition
	// Tiles scales the file size (the paper's file-size parameter):
	// each operation accesses Tiles filetype instances (default 1).
	Tiles int64

	// Options tune the MPI-IO layer; Engine overrides Options.Engine.
	Options core.Options
	// Backend supplies the storage backend (default: fresh Mem).
	Backend storage.Backend
	// StallTimeout, when positive, arms the MPI stall watchdog: a run
	// whose ranks all block without progress for this long aborts with
	// a per-rank diagnostic instead of hanging (useful under fault
	// injection).
	StallTimeout time.Duration
	// Trace, when non-nil, records per-rank spans of every collective
	// phase and MPI wait into the collector for Chrome-trace export and
	// the imbalance summary.
	Trace *trace.Collector
	// OnStall, when set, fires with the watchdog's diagnostic before a
	// stalled world aborts — the flight recorder's dump hook.
	OnStall func(diagnostic string)
}

func (c Config) tiles() int64 {
	if c.Tiles > 0 {
		return c.Tiles
	}
	return 1
}

// DataPerProc reports the bytes each process moves per operation.
func (c Config) DataPerProc() int64 { return c.tiles() * c.Blockcount * c.Blocklen }

// FileSize reports the total file size of the dense interleaving.
func (c Config) FileSize() int64 { return int64(c.P) * c.DataPerProc() }

// Result carries the measured bandwidths and the rank-0 engine stats.
type Result struct {
	Config    Config
	WriteTime time.Duration // max across ranks, total over reps
	ReadTime  time.Duration
	WriteBpp  float64 // MB/s per process (1 MB = 1e6 bytes, as in the paper)
	ReadBpp   float64
	Stats     core.Stats // rank 0 file stats
	Comm      mpi.Stats  // world communication totals
	Verified  bool
}

// Filetype builds the Figure-4 fileview type for rank p of P.
func Filetype(p, P int, blockcount, blocklen int64) (*datatype.Type, error) {
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

// Memtype builds the non-contiguous memory datatype: the same block
// geometry with one-block gaps (stride 2·blocklen).
func Memtype(blockcount, blocklen int64) (*datatype.Type, error) {
	return datatype.Hvector(blockcount, blocklen, 2*blocklen, datatype.Byte)
}

// rankResult is what one rank's benchmark body produces.  The elapsed
// times are already Allreduce-maxed, so every rank carries the global
// numbers; Stats is each rank's own engine snapshot.
type rankResult struct {
	writeNs, readNs int64
	stats           core.Stats
	verifyFailed    bool
}

func (c Config) validate() (Config, error) {
	if c.P <= 0 || c.Blockcount <= 0 || c.Blocklen <= 0 {
		return c, fmt.Errorf("noncontig: invalid config %+v", c)
	}
	if c.Reps <= 0 {
		c.Reps = 1
	}
	return c, nil
}

// runRankBody is the per-rank benchmark: pre-size (rank 0), install the
// view, run the timed write/read repetitions, verify, reduce the
// maxima.  It runs identically under every process model — goroutine
// ranks on a shared backend, or one OS process per rank each holding
// its own handle on a shared file.
func runRankBody(cfg Config, p *mpi.Proc, be storage.Backend, sh *core.Shared, opts core.Options) rankResult {
	// Pre-size the file so backend growth is not charged to the first
	// write measured.  Rank 0 truncates; the barrier publishes the size.
	if p.Rank() == 0 && be.Size() < cfg.FileSize() {
		if err := be.Truncate(cfg.FileSize()); err != nil {
			panic(err)
		}
	}
	p.Barrier()

	f, err := core.Open(p, sh, opts)
	if err != nil {
		panic(err)
	}
	defer f.Close()

	d := cfg.DataPerProc()
	fileNC := cfg.Pattern == CNc || cfg.Pattern == NcNc
	memNC := cfg.Pattern == NcC || cfg.Pattern == NcNc

	// Install the fileview.
	var viewOff int64 // access offset in etypes (bytes; etype stays Byte)
	if fileNC {
		ft, err := Filetype(p.Rank(), p.Size(), cfg.Blockcount, cfg.Blocklen)
		if err != nil {
			panic(err)
		}
		if err := f.SetView(0, datatype.Byte, ft); err != nil {
			panic(err)
		}
	} else {
		// Contiguous file: each process owns its own region.
		viewOff = int64(p.Rank()) * d
	}

	// Build the memory buffer.
	var memt *datatype.Type
	var count int64
	var buf []byte
	if memNC {
		mt, err := Memtype(cfg.Blockcount, cfg.Blocklen)
		if err != nil {
			panic(err)
		}
		memt, count = mt, cfg.tiles()
		buf = make([]byte, count*mt.Extent())
	} else {
		memt, count = datatype.Byte, d
		buf = make([]byte, d)
	}
	fillPattern(buf, p.Rank())

	readBuf := make([]byte, len(buf))

	write := func() {
		var err error
		if cfg.Collective {
			_, err = f.WriteAtAll(viewOff, count, memt, buf)
		} else {
			_, err = f.WriteAt(viewOff, count, memt, buf)
		}
		if err != nil {
			panic(err)
		}
	}
	read := func() {
		var err error
		if cfg.Collective {
			_, err = f.ReadAtAll(viewOff, count, memt, readBuf)
		} else {
			_, err = f.ReadAt(viewOff, count, memt, readBuf)
		}
		if err != nil {
			panic(err)
		}
	}

	var res rankResult
	var wNs, rNs int64
	for rep := 0; rep < cfg.Reps; rep++ {
		p.Barrier()
		t0 := time.Now()
		write()
		p.Barrier()
		wNs += time.Since(t0).Nanoseconds()

		t1 := time.Now()
		read()
		p.Barrier()
		rNs += time.Since(t1).Nanoseconds()

		if rep == 0 && cfg.Verify {
			if !verifyTyped(buf, readBuf, memt, count) {
				res.verifyFailed = true
			}
		}
	}
	// Reduce the maximum elapsed times onto every rank.
	res.writeNs = p.AllreduceInt64(wNs, mpi.OpMax)
	res.readNs = p.AllreduceInt64(rNs, mpi.OpMax)
	res.stats = f.Stats.Snapshot()
	return res
}

// assemble turns one rank's result plus the world stats into a Result.
func (c Config) assemble(rr rankResult, comm mpi.Stats) (Result, error) {
	if rr.verifyFailed {
		return Result{}, fmt.Errorf("noncontig: read-back verification failed (%+v)", c)
	}
	res := Result{Config: c, Verified: true}
	res.WriteTime = time.Duration(rr.writeNs)
	res.ReadTime = time.Duration(rr.readNs)
	bytesMoved := float64(c.DataPerProc() * int64(c.Reps))
	if rr.writeNs > 0 {
		res.WriteBpp = bytesMoved / (float64(rr.writeNs) / 1e9) / 1e6
	}
	if rr.readNs > 0 {
		res.ReadBpp = bytesMoved / (float64(rr.readNs) / 1e9) / 1e6
	}
	res.Stats = rr.stats
	res.Comm = comm
	return res, nil
}

// Run executes the benchmark with in-process goroutine ranks and
// returns the measured result.
func Run(cfg Config) (Result, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return Result{}, err
	}
	return runOver(cfg, transport.NewLoopback(cfg.P))
}

// RunOver is Run with the ranks exchanging over the given transport
// endpoints (still one process: the backend is shared directly).  With
// loopback endpoints it is Run; with transport.NewLocalTCPWorld the
// exchange phases cross real sockets — the transport benchmark's seam.
func RunOver(cfg Config, eps []transport.Transport) (Result, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return Result{}, err
	}
	if cfg.P != len(eps) {
		return Result{}, fmt.Errorf("noncontig: config P=%d but %d endpoints", cfg.P, len(eps))
	}
	return runOver(cfg, eps)
}

func runOver(cfg Config, eps []transport.Transport) (Result, error) {
	be := cfg.Backend
	if be == nil {
		be = storage.NewMem()
	}
	sh := core.NewShared(be)
	opts := cfg.Options
	opts.Engine = cfg.Engine
	opts.Trace = cfg.Trace

	results := make([]rankResult, cfg.P)
	comm, err := mpi.RunOver(eps, mpi.RunOptions{
		StallTimeout: cfg.StallTimeout, Trace: cfg.Trace, OnStall: cfg.OnStall,
	}, func(p *mpi.Proc) {
		results[p.Rank()] = runRankBody(cfg, p, be, sh, opts)
	})
	if err != nil {
		return Result{}, err
	}
	for r := range results {
		if results[r].verifyFailed {
			results[0].verifyFailed = true
		}
	}
	return cfg.assemble(results[0], comm)
}

// RunRank executes one rank of the benchmark as its own OS process: ep
// is this process's endpoint of a multi-process fabric and cfg.Backend
// this process's own handle on the shared file (storage.OpenFileShared).
// Collective access is required — independent data sieving would
// read-modify-write the shared file under a per-process lock table,
// which cannot exclude other processes.  Every rank returns the same
// reduced timings; Stats are the local rank's.
func RunRank(cfg Config, ep transport.Transport) (Result, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return Result{}, err
	}
	if cfg.P != ep.Size() {
		return Result{}, fmt.Errorf("noncontig: config P=%d but world size %d", cfg.P, ep.Size())
	}
	if cfg.Backend == nil {
		return Result{}, fmt.Errorf("noncontig: RunRank needs an explicit Backend (each process opens the shared file itself)")
	}
	if !cfg.Collective {
		return Result{}, fmt.Errorf("noncontig: RunRank requires collective access (independent sieving cannot lock across processes)")
	}
	sh := core.NewShared(cfg.Backend)
	opts := cfg.Options
	opts.Engine = cfg.Engine
	opts.Trace = cfg.Trace

	var rr rankResult
	comm, err := mpi.RunRank(ep, mpi.RunOptions{
		StallTimeout: cfg.StallTimeout, Trace: cfg.Trace, OnStall: cfg.OnStall,
	}, func(p *mpi.Proc) {
		rr = runRankBody(cfg, p, cfg.Backend, sh, opts)
	})
	if err != nil {
		return Result{}, err
	}
	return cfg.assemble(rr, comm)
}

// fillPattern writes a rank-dependent deterministic pattern.
func fillPattern(b []byte, rank int) {
	for i := range b {
		b[i] = byte((rank*131 + i*7 + 13) % 251)
	}
}

// verifyTyped compares only the typed (data-bearing) positions of two
// memtype-described buffers.
func verifyTyped(want, got []byte, memt *datatype.Type, count int64) bool {
	if memt.Kind() == datatype.KindNamed {
		return bytes.Equal(want, got)
	}
	ok := true
	ext := memt.Extent()
	for k := int64(0); k < count; k++ {
		memt.Walk(func(off, ln int64) {
			o := k*ext + off
			if !bytes.Equal(want[o:o+ln], got[o:o+ln]) {
				ok = false
			}
		})
	}
	return ok
}
