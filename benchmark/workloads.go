package main

import (
	"fmt"

	"repro/internal/datatype"
)

// ranks is the world size of every workload: the sandbox has two cores,
// and a workload never runs more ranks or client connections than cores.
const ranks = 2

// geometry is what one rank accesses in one op: exactly one instance of
// its filetype, moved from or to count instances of its memtype.
type geometry struct {
	ftype *datatype.Type // fileview filetype (etype is Byte)
	disp  int64          // fileview displacement
	mtype *datatype.Type // memory datatype
	count int64          // memtype instances per op
}

// bytes reports the user data one op moves for this rank.
func (g geometry) bytes() int64 { return g.ftype.Size() }

// bufLen reports the user buffer length count instances of mtype need.
func (g geometry) bufLen() int64 { return (g.count-1)*g.mtype.Extent() + g.mtype.TrueUB() }

// fileEnd reports the end of the file range the rank's view touches.
func (g geometry) fileEnd() int64 { return g.disp + g.ftype.TrueUB() }

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json
	// build makes rank's geometry from the seed; only irr uses the seed.
	build      func(seed int64, rank int) (geometry, error)
	collective bool // WriteAtAll/ReadAtAll, else independent WriteAt/ReadAt
	tcp        bool // ranks on transport.NewLocalTCPWorld instead of loopback
	tier       bool // backend is the two-server journaled tier, else storage.Mem
	// sieveDensity is core.Options.SieveDensity, the one option a
	// workload may move off its default.
	sieveDensity float64
	// traceOps is the fixed number of write+read pairs of the traced
	// round, sized to about two seconds at the seed commit (some 400 CPU
	// samples) and frozen so that per-op counts repeat exactly.
	traceOps int
}

// fig4 builds the paper's Figure 4 geometry: rank p of P sees nblock
// blocks of sblock bytes interleaved with the other ranks' blocks; memory
// holds the same blocks with one-block gaps.
func fig4(nblock, sblock int64) func(int64, int) (geometry, error) {
	return func(_ int64, rank int) (geometry, error) {
		vec, err := datatype.Hvector(nblock, sblock, ranks*sblock, datatype.Byte)
		if err != nil {
			return geometry{}, err
		}
		ft, err := datatype.Struct(
			[]int64{1, 1, 1},
			[]int64{0, int64(rank) * sblock, nblock * ranks * sblock},
			[]*datatype.Type{datatype.LBMarker, vec, datatype.UBMarker},
		)
		if err != nil {
			return geometry{}, err
		}
		mt, err := datatype.Hvector(nblock, sblock, 2*sblock, datatype.Byte)
		if err != nil {
			return geometry{}, err
		}
		return geometry{ftype: ft, mtype: mt, count: 1}, nil
	}
}

// sparseView builds tierview's geometry: 16384 runs of 8 bytes at a 1 KiB
// stride, the ranks half a stride apart, from a contiguous user buffer.
func sparseView(_ int64, rank int) (geometry, error) {
	const runs, run, stride = 16384, 8, 1024
	ft, err := datatype.Vector(runs, run, stride, datatype.Byte)
	if err != nil {
		return geometry{}, err
	}
	return geometry{ftype: ft, disp: int64(rank) * stride / 2, mtype: datatype.Byte, count: runs * run}, nil
}

// workloads lists the seven workloads in the order A..G that the suite
// alternates over.
var workloads = []*workload{
	{name: "vec8", collective: true, traceOps: 400, build: fig4(524288, 8),
		why: "paper Fig. 4, 8-byte blocks, collective on memory: time is pack/unpack in fotf programs and core window copies"},
	{name: "vec16k", collective: true, traceOps: 800, build: fig4(256, 16384),
		why: "same bytes in 16 KiB blocks: copies are near memcpy, so datatype-kernel work should not move it; control for vec8"},
	{name: "irr", collective: true, traceOps: 90, build: irregular,
		why: "seeded irregular Hindexed file and memory types: the per-group-dispatch worst case that vec8's single run group hides"},
	{name: "indep8", traceOps: 400, build: fig4(524288, 8),
		why: "vec8 geometry through independent data sieving: tree walk, read-modify-write and lock table, not program or exchange"},
	{name: "tcp16k", collective: true, tcp: true, traceOps: 450, build: fig4(256, 16384),
		why: "vec16k with ranks on loopback TCP: differs only in the wire, so transport and mpi framing do most of the work"},
	{name: "tier64", collective: true, tier: true, traceOps: 60, build: fig4(65536, 64),
		why: "64-byte blocks, collective into two journaled I/O servers: round trips, staging, journal fsync and epoch commit"},
	{name: "tierview", tier: true, sieveDensity: 0.25, traceOps: 100, build: sparseView,
		why: "sparse independent access the servers evaluate as a registered view: request-count-bound, opposite regime of tier64"},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
