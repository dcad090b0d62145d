package core

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/counter"
	"repro/internal/datatype"
	"repro/internal/ioserver"
	"repro/internal/mpi"
	"repro/internal/storage"
	"repro/internal/transport"
)

// The exact rows: the counts the benchmark's traced pass declares exact —
// messages and payload bytes, windows, sieve read-modify-writes and
// skipped pre-reads, storage calls and bytes, I/O-server requests, round
// trips, staged writes, epochs and fsyncs, view bytes sent — taken here
// on the benchmark's seven workload geometries, at a few ops each, with
// tcp16k's at P = 4 and on the tier too, and held to
// testdata/exact_rows.golden.  A change that moves a count
// rewrites the file with
//
//	go test ./internal/core -run TestExactRowsGolden -update
//
// and the diff shows which counts it moved.  The geometries repeat
// benchmark/workloads.go and benchmark/irr.go (a separate module).

var updateExactRows = flag.Bool("update", false, "rewrite testdata/exact_rows.golden from this run")

const exactRowsGolden = "testdata/exact_rows.golden"

// exactGeom is what one rank accesses in one op: one instance of its
// filetype, from or to count instances of its memtype.
type exactGeom struct {
	ftype *datatype.Type
	disp  int64
	mtype *datatype.Type
	count int64
}

// exactCell is one workload geometry on one world.
type exactCell struct {
	name       string
	P          int
	geom       func(rank, P int) exactGeom
	collective bool
	tcp        bool
	tier       bool    // two journaled I/O servers with 64 KiB stripes, else Mem
	density    float64 // Options.SieveDensity
}

// fig4Geom is the paper's Figure 4 (internal/noncontig's Filetype and
// Memtype): nblock blocks of sblock bytes, interleaved across the ranks in
// the file, with one-block gaps in memory.
func fig4Geom(nblock, sblock int64) func(rank, P int) exactGeom {
	return func(rank, P int) exactGeom {
		return exactGeom{ftype: noncontigTypeP(rank, P, nblock, sblock), mtype: hvecBytes(nblock, sblock, 2*sblock), count: 1}
	}
}

// irrGeom is the irr workload at seed 1: 32 768 blocks per rank of seeded
// lengths from 8 to 248 bytes, end to end over the file and belonging to
// the two ranks alternately, 4 MiB per rank; each rank's memory holds its
// blocks in a seeded shuffled order with seeded gaps.
func irrGeom(rank, P int) exactGeom {
	const blocks, minLen, maxLen, step, perRank, seed = 32768, 8, 248, 8, 4 << 20, 1
	r := rand.New(rand.NewSource(seed))
	draw := func(r *rand.Rand) int64 { return minLen + step*r.Int63n((maxLen-minLen)/step+1) }
	layout, sum := make([]int64, P*blocks), make([]int64, P)
	for i := range layout {
		layout[i] = draw(r)
		sum[i%P] += layout[i]
	}
	for k := 0; k < P; k++ {
		for sum[k] != perRank {
			i, s := r.Intn(blocks)*P+k, int64(step)
			if sum[k] > perRank {
				s = -s
			}
			if n := layout[i] + s; n >= minLen && n <= maxLen {
				layout[i], sum[k] = n, sum[k]+s
			}
		}
	}
	var lens, displs []int64
	var off int64
	for i, n := range layout {
		if i%P == rank {
			lens, displs = append(lens, n), append(displs, off)
		}
		off += n
	}
	ft := mustType(datatype.Resized(mustType(datatype.Hindexed(lens, displs, datatype.Byte)), 0, off))
	mr := rand.New(rand.NewSource(seed*int64(P) + int64(rank) + 1))
	mlens := slices.Clone(lens)
	mr.Shuffle(len(mlens), func(i, j int) { mlens[i], mlens[j] = mlens[j], mlens[i] })
	mdispls := make([]int64, len(mlens))
	var moff int64
	for i, n := range mlens {
		moff += draw(mr)
		mdispls[i] = moff
		moff += n
	}
	return exactGeom{ftype: ft, mtype: mustType(datatype.Hindexed(mlens, mdispls, datatype.Byte)), count: 1}
}

// sparseGeom is tierview's: 16 384 runs of 8 bytes at a 1 KiB stride, the
// ranks half a stride apart, from contiguous memory.
func sparseGeom(rank, _ int) exactGeom {
	const runs, run, stride = 16384, 8, 1024
	return exactGeom{ftype: mustType(datatype.Vector(runs, run, stride, datatype.Byte)), disp: int64(rank) * stride / 2, mtype: datatype.Byte, count: runs * run}
}

var exactCells = []exactCell{
	{name: "vec8", P: 2, geom: fig4Geom(524288, 8), collective: true},
	{name: "vec16k", P: 2, geom: fig4Geom(256, 16384), collective: true},
	{name: "irr", P: 2, geom: irrGeom, collective: true},
	{name: "indep8", P: 2, geom: fig4Geom(524288, 8)},
	{name: "tcp16k", P: 2, geom: fig4Geom(256, 16384), collective: true, tcp: true},
	{name: "tier64", P: 2, geom: fig4Geom(65536, 64), collective: true, tier: true},
	{name: "tierview", P: 2, geom: sparseGeom, tier: true, density: 0.25},
	{name: "tcp16k-P4", P: 4, geom: fig4Geom(256, 16384), collective: true, tcp: true},
	// tcp16k's geometry on the tier: the write takes no plan, and every
	// rank begins its epoch behind a barrier and moves its own data.
	{name: "tier16k", P: 2, geom: fig4Geom(256, 16384), collective: true, tier: true},
}

// exactOps is the write+read pairs counted per cell, after one that is not.
const exactOps = 2

// TestExactRowsGolden runs every cell and compares its counts with the
// golden file: each rank's own (core.Stats and its sent messages), and
// the world's backend and servers', each snapshot taken between two
// barriers, so that no rank's access is on either side of it.
func TestExactRowsGolden(t *testing.T) {
	// The benchmark's programs compile; the package's tests lower the
	// bound for their declined cells.
	defer func(old int64) { compileBlocks = old }(compileBlocks)
	compileBlocks = math.MaxInt64
	var rows []string
	for _, c := range exactCells {
		rows = append(rows, c.rows(t)...)
	}
	got := strings.Join(rows, "\n") + "\n"
	if *updateExactRows {
		if err := os.MkdirAll(filepath.Dir(exactRowsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(exactRowsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(exactRowsGolden)
	if err != nil {
		t.Fatalf("%v (rewrite it with -update)", err)
	}
	if got == string(want) {
		return
	}
	wantRows := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for _, row := range wantRows {
		if !slices.Contains(rows, row) {
			t.Errorf("golden row missing: %s", row)
		}
	}
	for _, row := range rows {
		if !slices.Contains(wantRows, row) {
			t.Errorf("row not in the golden file: %s", row)
		}
	}
}

// exactCounts is one snapshot: every rank's own counts and the world's.
type exactCounts struct {
	core  []Stats
	mpi   []mpi.Stats
	store storage.AccessStats
	srv   ioserver.ServerStats
	trips int64
}

// rows runs the cell and returns its counts, one row each: "cell rank
// counter value" for a rank's own, "cell all counter value" for the
// world's.
func (c exactCell) rows(t *testing.T) []string {
	t.Helper()
	geoms := make([]exactGeom, c.P)
	var fileEnd int64
	for r := range geoms {
		geoms[r] = c.geom(r, c.P)
		fileEnd = max(fileEnd, geoms[r].disp+geoms[r].ftype.TrueUB())
	}
	var be storage.Backend
	var insts []*storage.Instrumented
	var servers []*ioserver.Server
	var mount *ioserver.Striped
	if c.tier {
		mount, servers, insts = journaledTier(t, 64<<10, 2)
		be = mount
	} else {
		inst := storage.NewInstrumented(storage.NewMem())
		be, insts = inst, []*storage.Instrumented{inst}
	}
	if err := be.Truncate(fileEnd); err != nil {
		t.Fatal(err)
	}
	sh := NewShared(be)
	eps := transport.NewLoopback(c.P)
	if c.tcp {
		var err error
		if eps, err = transport.NewLocalTCPWorld(c.P, transport.TCPConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	var snaps [2]exactCounts
	for i := range snaps {
		snaps[i] = exactCounts{core: make([]Stats, c.P), mpi: make([]mpi.Stats, c.P)}
	}
	snap := func(i int, p *mpi.Proc, f *File) {
		p.Barrier()
		s := &snaps[i]
		s.core[p.Rank()], s.mpi[p.Rank()] = f.Stats, p.SentStats()
		if p.Rank() == 0 {
			for _, in := range insts {
				counter.Add(&s.store, in.Stats())
			}
			for _, srv := range servers {
				counter.Add(&s.srv, srv.Stats())
			}
			if mount != nil {
				s.trips = mount.Rounds()
			}
		}
		p.Barrier()
	}
	_, err := mpi.RunOver(eps, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
		g := geoms[p.Rank()]
		f, err := Open(p, sh, Options{SieveDensity: c.density})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		if err := f.SetView(g.disp, datatype.Byte, g.ftype); err != nil {
			panic(err)
		}
		n := (g.count-1)*g.mtype.Extent() + g.mtype.TrueUB()
		buf, rbuf := pattern(p.Rank(), n), make([]byte, n)
		op := func(write bool) {
			var got int64
			var err error
			switch {
			case c.collective && write:
				got, err = f.WriteAtAll(0, g.count, g.mtype, buf)
			case c.collective:
				got, err = f.ReadAtAll(0, g.count, g.mtype, rbuf)
			case write:
				got, err = f.WriteAt(0, g.count, g.mtype, buf)
			default:
				got, err = f.ReadAt(0, g.count, g.mtype, rbuf)
			}
			if err != nil || got != g.ftype.Size() {
				panic(fmt.Sprintf("%s rank %d: moved %d of %d bytes (%v)", c.name, p.Rank(), got, g.ftype.Size(), err))
			}
			p.Barrier()
		}
		op(true)
		op(false)
		snap(0, p, f)
		for i := 0; i < exactOps; i++ {
			op(true)
			op(false)
		}
		snap(1, p, f)
	})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	b, a := &snaps[0], &snaps[1]
	var rows []string
	row := func(who, counter string, v int64) {
		rows = append(rows, fmt.Sprintf("%s %s %s %d", c.name, who, counter, v))
	}
	for r := 0; r < c.P; r++ {
		who, d, m := fmt.Sprintf("rank%d", r), a.core[r].Sub(b.core[r]), a.mpi[r]
		row(who, "mpi.msgs", m.Messages-b.mpi[r].Messages)
		row(who, "mpi.payload_bytes", m.Bytes-b.mpi[r].Bytes)
		row(who, "core.sieve_reads", d.SieveReads)
		row(who, "core.sieve_writes", d.SieveWrites)
		row(who, "core.windows_overlapped", d.WindowsOverlapped)
		row(who, "core.prereads_skipped", d.PreReadsSkipped)
		row(who, "core.own_batches", d.VectoredReads+d.VectoredWrites+d.ViewReads+d.ViewWrites)
		row(who, "core.own_segments", d.DirectReads+d.DirectWrites)
		row(who, "core.epochs", d.EpochsCommitted)
		row(who, "core.epoch_retries", d.EpochRetries)
		row(who, "core.view_bytes_sent", a.core[r].ViewBytesSent)
	}
	row("all", "storage.calls", a.store.Reads+a.store.Writes-b.store.Reads-b.store.Writes)
	row("all", "storage.bytes", a.store.BytesRead+a.store.BytesWritten-b.store.BytesRead-b.store.BytesWritten)
	if c.tier {
		row("all", "ioserver.round_trips", a.trips-b.trips)
		row("all", "ioserver.requests", a.srv.Requests-b.srv.Requests)
		row("all", "ioserver.staged_writes", a.srv.StagedWrites-b.srv.StagedWrites)
		row("all", "ioserver.epochs", a.srv.EpochsCommitted-b.srv.EpochsCommitted)
		row("all", "ioserver.fsyncs", a.srv.JournalFsyncs-b.srv.JournalFsyncs)
	}
	return rows
}

// journaledTier starts n journaled I/O servers over Mem stripes, each
// stripe counted by an Instrumented, and mounts them; the test's cleanup
// closes the mount and the servers.
func journaledTier(t *testing.T, unit int64, n int) (*ioserver.Striped, []*ioserver.Server, []*storage.Instrumented) {
	t.Helper()
	geom := storage.StripeGeom{Unit: unit, Count: n}
	addrs := make([]string, n)
	var servers []*ioserver.Server
	var insts []*storage.Instrumented
	for i := range addrs {
		stripe := storage.NewInstrumented(storage.NewMem())
		journal, info, err := ioserver.RecoverJournal(storage.NewMem(), stripe)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := ioserver.New(ioserver.Config{Backend: stripe, Geom: geom, Index: i, Journal: journal, Recovery: info})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		servers, insts = append(servers, srv), append(insts, stripe)
	}
	mount, err := ioserver.NewStriped(unit, addrs, ioserver.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mount.Close() })
	return mount, servers, insts
}
