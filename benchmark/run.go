package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/ioserver"
	"repro/internal/mpi"
	"repro/internal/pool"
	"repro/internal/storage"
	"repro/internal/transport"
)

// warmups is the number of write+read pairs run before the first timed op.
const warmups = 3

// runConfig describes one pass over one workload: set-up, warm-up, and
// rounds of timed write+read pairs, every byte checked against the oracle.
type runConfig struct {
	wl      *workload
	seed    int64
	tmp     string    // directory for the tier's files
	started time.Time // set-up is timed from here
	rec     *recorder // nil: untraced
	onMem   bool      // run a tier workload's geometry on storage.Mem instead

	rounds int
	// A round ends after roundTime, or after fixedOps pairs when fixedOps
	// is set: the traced round has a fixed length so its counts repeat.
	roundTime time.Duration
	fixedOps  int

	// corrupt, when set, may damage a read-back buffer before it is
	// checked; the self-test uses it to prove a wrong byte is counted.
	corrupt func(rank, round, op int, rbuf []byte)
}

// roundResult is one round's timed section.
type roundResult struct {
	writeNs, readNs []float64 // per op, barrier to barrier, max over ranks
	// Per op, the mean of the reference kernel's timings right before and
	// right after it, max over ranks (untraced passes only).
	writeRefNs, readRefNs []float64
	cpuS                  float64 // user+sys CPU seconds of the process inside the timed ops
}

// counters is a snapshot of every exported counter the ledger reads.
type counters struct {
	core    [ranks]core.Stats
	mpi     [ranks]mpi.Stats
	storage storage.AccessStats  // leaf backends, through storage.Instrumented
	busyNs  int64                // time inside backend calls made by core
	rounds  int64                // client round trips to the tier
	server  ioserver.ServerStats // summed over the tier's servers
	pool    pool.Stats
	mallocs uint64
	allocB  uint64
}

type runResult struct {
	setup     time.Duration
	rounds    []roundResult
	attempted int
	failed    int
	userBytes int64 // user data all ranks move in one op
	fileSize  int64
	refBytes  int64 // data one timing of the reference kernel packs, per rank
	// before/after bracket the timed ops of the last round (traced pass),
	// and profile is the CPU profile taken between them.
	before, after counters
	profile       bytes.Buffer
}

// bwMBps is the per-process bandwidth of one op: user bytes per rank over
// the op's time, in MB/s with 1 MB = 1e6 B (the paper's B_pp).
func (r *runResult) bwMBps(ns float64) float64 {
	return float64(r.userBytes) / ranks / (ns / 1e9) / 1e6
}

// rel is one op's per-process bandwidth over the reference kernel's
// bandwidth around the same moment: bytes per rank over opNs against
// refBytes over refNs.
func (r *runResult) rel(opNs, refNs float64) float64 {
	return float64(r.userBytes) / ranks / opNs * refNs / float64(r.refBytes)
}

// rendezvous is a barrier of the benchmark's own for the points where
// the ranks hand benchmark state to each other (geometries, buffers the
// image is painted from).  An mpi barrier orders those too, but over the
// TCP fabric it does so through sockets, which the Go memory model and
// the race detector know nothing about.
type rendezvous struct {
	mu      sync.Mutex
	arrived int
	wake    chan struct{} // closed when everyone has arrived
}

func (b *rendezvous) wait() {
	b.mu.Lock()
	if b.wake == nil {
		b.wake = make(chan struct{})
	}
	b.arrived++
	if b.arrived == ranks {
		close(b.wake)
		b.arrived, b.wake = 0, nil
		b.mu.Unlock()
		return
	}
	wake := b.wake
	b.mu.Unlock()
	<-wake
}

type runner struct {
	cfg runConfig
	res runResult

	sh   *core.Shared
	be   storage.Backend // what core sees
	tier *tier
	inst *storage.Instrumented // leaf wrapper on Mem in the traced pass
	sbe  *spanBackend

	geoms [ranks]geometry
	bufs  [ranks][]byte
	img   []byte // expected file image, repainted before each check
	got   []byte // the backend's raw bytes
	pack  []byte // paintImage's scratch

	last   atomic.Bool // rank 0's verdict that the pair just run ends the round
	meet   rendezvous
	mu     sync.Mutex
	failed map[int64]bool // op ids that returned an error or failed a check

	perRank [ranks][]roundResult
	snaps   [2]counters
}

// run executes the pass and stops everything it started.
func run(cfg runConfig) (*runResult, error) {
	r := &runner{cfg: cfg, failed: make(map[int64]bool)}
	setup := cfg.rec.begin("setup", 0, 0, 0)

	traced := cfg.rec != nil
	if cfg.wl.tier && !cfg.onMem {
		id := cfg.rec.begin("tier.start", setup, 0, 0)
		t, err := startTier(cfg.tmp, traced)
		cfg.rec.end(id)
		if err != nil {
			return nil, err
		}
		defer t.stop()
		r.tier, r.be = t, t.agg
	} else {
		r.be = storage.NewMem()
		if traced {
			r.inst = storage.NewInstrumented(r.be)
			r.be = r.inst
		}
	}
	if traced {
		r.sbe = &spanBackend{Backend: r.be, rec: cfg.rec}
		r.be = r.sbe
	}
	r.sh = core.NewShared(r.be)

	eps := transport.NewLoopback(ranks)
	if cfg.wl.tcp {
		var err error
		if eps, err = transport.NewLocalTCPWorld(ranks, transport.TCPConfig{}); err != nil {
			return nil, err
		}
	}
	if _, err := mpi.RunOver(eps, mpi.RunOptions{}, func(p *mpi.Proc) { r.rank(p, setup) }); err != nil {
		return nil, err
	}

	r.res.rounds = make([]roundResult, cfg.rounds)
	for i := range r.res.rounds {
		rr := r.perRank[0][i]
		for rank := 1; rank < ranks; rank++ {
			o := r.perRank[rank][i]
			for _, pair := range [][2][]float64{
				{rr.writeNs, o.writeNs}, {rr.readNs, o.readNs},
				{rr.writeRefNs, o.writeRefNs}, {rr.readRefNs, o.readRefNs},
			} {
				for k := range pair[0] {
					pair[0][k] = max(pair[0][k], pair[1][k])
				}
			}
		}
		r.res.rounds[i] = rr
		r.res.attempted += 2 * len(rr.writeNs)
	}
	r.res.attempted += 2 * warmups
	r.res.failed = len(r.failed)
	r.res.before, r.res.after = r.snaps[0], r.snaps[1]
	return &r.res, nil
}

func (r *runner) fail(op int64, why string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.failed[op] {
		fmt.Printf("FAILED op %d (%s): %s\n", op, r.cfg.wl.name, fmt.Sprintf(why, args...))
	}
	r.failed[op] = true
}

// rank is one rank's whole pass.  Set-up errors panic, which mpi.RunOver
// turns into the error run returns; an op that fails is counted instead.
func (r *runner) rank(p *mpi.Proc, setup int64) {
	rank, rec, wl := p.Rank(), r.cfg.rec, r.cfg.wl

	id := rec.begin("datatype.build", setup, 0, rank)
	g, err := wl.build(r.cfg.seed, rank)
	rec.end(id)
	if err != nil {
		panic(err)
	}
	buf, rbuf := make([]byte, g.bufLen()), make([]byte, g.bufLen())
	fillData(buf, g, r.cfg.seed, rank)
	r.geoms[rank], r.bufs[rank] = g, buf
	r.meet.wait()
	if rank == 0 {
		for _, o := range r.geoms {
			r.res.fileSize = max(r.res.fileSize, o.fileEnd())
			r.res.userBytes += o.bytes()
		}
		r.img, r.got = make([]byte, r.res.fileSize), make([]byte, r.res.fileSize)
		// Pre-size the file so that growth is not charged to the first write.
		if err := r.be.Truncate(r.res.fileSize); err != nil {
			panic(err)
		}
	}
	p.Barrier()

	id = rec.begin("core.open", setup, 0, rank)
	f, err := core.Open(p, r.sh, core.Options{Engine: core.Listless, SieveDensity: wl.sieveDensity})
	rec.end(id)
	if err != nil {
		panic(err)
	}
	id = rec.begin("core.setview", setup, 0, rank)
	err = f.SetView(g.disp, datatype.Byte, g.ftype)
	rec.end(id)
	if err != nil {
		panic(err)
	}

	access := func(write bool, b []byte) (int64, error) {
		switch {
		case wl.collective && write:
			return f.WriteAtAll(0, g.count, g.mtype, b)
		case wl.collective:
			return f.ReadAtAll(0, g.count, g.mtype, b)
		case write:
			return f.WriteAt(0, g.count, g.mtype, b)
		}
		return f.ReadAt(0, g.count, g.mtype, b)
	}
	// op runs one access barrier to barrier, as the span tree
	// op.<dir>{core.<dir>{storage.*}, mpi.barrier}, and returns its time.
	op := func(id int64, write bool, b []byte) float64 {
		dir := "read"
		if write {
			dir = "write"
		}
		t0 := time.Now()
		osp := rec.begin("op."+dir, 0, id, rank)
		if rec != nil && rank == 0 {
			rec.opSpan.Store(osp)
			rec.opID.Store(id)
		}
		csp := rec.begin("core."+dir, osp, id, rank)
		n, err := access(write, b)
		rec.end(csp)
		bsp := rec.begin("mpi.barrier", osp, id, rank)
		p.Barrier()
		rec.end(bsp)
		rec.end(osp)
		ns := float64(time.Since(t0).Nanoseconds())
		if err != nil {
			r.fail(id, "%s returned %v", dir, err)
		} else if n != g.bytes() {
			r.fail(id, "%s moved %d bytes, want %d", dir, n, g.bytes())
		}
		return ns
	}
	checkRead := func(id int64) {
		if !sameData(rbuf, buf, g) {
			r.fail(id, "rank %d read back bytes that differ from the oracle", rank)
		}
	}
	// checkFile compares the backend's raw bytes with the image the
	// filetypes say the last write must have left (rank 0; the others wait).
	checkFile := func(id int64) {
		clear(r.img)
		for o, og := range r.geoms {
			r.pack = paintImage(r.img, r.bufs[o], og, r.pack)
		}
		if err := storage.ReadFull(r.be, r.got, 0); err != nil {
			r.fail(id, "reading the file back: %v", err)
		} else if !bytes.Equal(r.got, r.img) {
			r.fail(id, "file bytes differ from the oracle image")
		}
	}

	// The reference kernel runs in untraced passes only: the traced round's
	// spans, counts and CPU profile are to hold the stack's work alone.
	var ref *reference
	if rec == nil {
		ref = newReference(g)
		if rank == 0 {
			r.res.refBytes = ref.bytes()
		}
	}
	seq := int64(0) // pairs run so far; op ids are 2·seq+1 (write) and 2·seq+2 (read)
	wsp := rec.begin("warmup", setup, 0, rank)
	for i := 0; i < warmups; i++ {
		p.Barrier()
		op(2*seq+1, true, buf)
		op(2*seq+2, false, rbuf)
		seq++
	}
	checkRead(2 * seq)
	rec.end(wsp)
	p.Barrier()
	if rank == 0 {
		r.res.setup = time.Since(r.cfg.started)
		rec.end(setup)
	}

	for round := 0; round < r.cfg.rounds; round++ {
		restamp(buf, g, byte(round+1)^byte(round)) // data bytes become base^(round+1)
		if rank == 0 {
			// Collect between rounds, outside the timed ops, so that the
			// heap every round starts from, and with it the peak resident
			// set, does not depend on how much garbage earlier rounds
			// happened to leave.
			runtime.GC()
		}
		var rr roundResult
		start := time.Now()
		counted := rec != nil && round == r.cfg.rounds-1
		r.meet.wait()
		if counted {
			r.snapshot(0, f, p)
		}
		// timed runs one op between two rusage readings; the other ranks
		// are inside the same op, or waiting at its barriers, meanwhile.
		timed := func(id int64, write bool, b []byte) float64 {
			var ru0 syscall.Rusage
			if rank == 0 {
				ru0 = rusage()
			}
			ns := op(id, write, b)
			if rank == 0 {
				rr.cpuS += cpuSeconds(rusage()) - cpuSeconds(ru0)
			}
			return ns
		}
		// kernel times the reference kernel on every rank at once and
		// then meets the others, so that no op starts while a kernel runs.
		kernel := func() (ns float64) {
			if ref != nil {
				ns = ref.time(buf)
			}
			p.Barrier()
			return ns
		}
		var before float64
		if ref != nil {
			before = kernel()
		}
		for i := 0; ; i++ {
			w := timed(2*seq+1, true, buf)
			between := kernel()
			rd := timed(2*seq+2, false, rbuf)
			if rank == 0 {
				r.last.Store(i+1 == r.cfg.fixedOps || (r.cfg.fixedOps == 0 && time.Since(start) >= r.cfg.roundTime))
			}
			after := kernel() // its barrier publishes rank 0's verdict
			rr.writeNs, rr.writeRefNs = append(rr.writeNs, w), append(rr.writeRefNs, (before+between)/2)
			rr.readNs, rr.readRefNs = append(rr.readNs, rd), append(rr.readRefNs, (between+after)/2)
			before = after
			last := r.last.Load()
			if i == 0 || last {
				if r.cfg.corrupt != nil {
					r.cfg.corrupt(rank, round, i, rbuf)
				}
				checkRead(2*seq + 2)
			}
			seq++
			if last {
				break
			}
		}
		if counted {
			r.snapshot(1, f, p)
		}
		if rank == 0 {
			checkFile(2*seq - 1)
		}
		r.meet.wait() // the image is painted from every rank's buffer; hold restamping until it is checked
		r.perRank[rank] = append(r.perRank[rank], rr)
	}

	if err := f.Close(); err != nil {
		panic(err)
	}
}

// snapshot records the counters the calling rank owns and, on rank 0,
// the shared ones: the other ranks are between two barriers and touch
// nothing meanwhile.  Traced pass only.
func (r *runner) snapshot(i int, f *core.File, p *mpi.Proc) {
	c := &r.snaps[i]
	c.core[p.Rank()] = f.Stats.Snapshot()
	c.mpi[p.Rank()] = p.SentStats()
	if p.Rank() != 0 {
		return
	}
	if i == 0 {
		if err := pprof.StartCPUProfile(&r.res.profile); err != nil {
			panic(err)
		}
	} else {
		pprof.StopCPUProfile()
	}
	c.pool = pool.Global.Stats()
	c.busyNs = r.sbe.busyNs.Load()
	if r.inst != nil {
		c.storage = r.inst.Stats()
	}
	if r.tier != nil {
		for _, in := range r.tier.inst {
			st := in.Stats()
			c.storage.Reads += st.Reads
			c.storage.Writes += st.Writes
			c.storage.BytesRead += st.BytesRead
			c.storage.BytesWritten += st.BytesWritten
		}
		c.rounds = r.tier.agg.Rounds()
		c.server = r.tier.stats()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocB = ms.Mallocs, ms.TotalAlloc
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// peakRSSMB is the process's peak resident set, in MB of 1e6 bytes
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) * 1024 / 1e6 }
