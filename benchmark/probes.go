package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/datatype"
	"repro/internal/flatten"
	"repro/internal/fotf"
	"repro/internal/ioserver"
	"repro/internal/mpi"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Layer probes: the workload's own datatypes pushed through each layer's
// public functions in isolation, next to rooflines measured in the same
// process, so that no ratio is ever formed across machines.

const (
	probeWindow = 64 << 10 // pack window, the order of core's chunk sizes
	probeChunk  = 1 << 20  // transfer size of the streaming probes
	// roofBytes is the array size of the memcpy roofline.  The guide asks
	// for four times the last-level cache; on a host whose LLC is larger
	// than the sandbox's memory share that is not affordable, so the size
	// is fixed and printed next to the LLC size.
	roofBytes = 64 << 20
	probeRank = ranks + 1 // span track of the probes
)

// prober runs probes under a per-probe time budget and records a span
// and a value for each.
type prober struct {
	rec    *recorder
	budget time.Duration
	vals   map[string]float64
}

// seconds repeats fn for the budget (three times at least) and returns
// the median seconds per call, inside a span named after the metric.
func (pr *prober) seconds(metric string, fn func()) float64 {
	return pr.secondsReset(metric, fn, func() {})
}

// secondsReset is seconds with an untimed reset after every call.
func (pr *prober) secondsReset(metric string, fn, reset func()) float64 {
	id := pr.rec.begin("probe."+metric, 0, 0, probeRank)
	defer pr.rec.end(id)
	var times []float64
	for start := time.Now(); len(times) < 3 || time.Since(start) < pr.budget; {
		t0 := time.Now()
		fn()
		times = append(times, time.Since(t0).Seconds())
		reset()
	}
	return median(times)
}

func (pr *prober) mbps(metric string, bytes int64, fn func()) {
	pr.vals[metric] = float64(bytes) / pr.seconds(metric, fn) / 1e6
}

func (pr *prober) micros(metric string, fn func()) {
	pr.vals[metric] = pr.seconds(metric, fn) * 1e6
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// runProbes measures every (p) metric of the ledger with rank 0's
// datatypes of the workload.  A probe that cannot run is a broken
// benchmark: errors panic inside, and come back as one error.
func runProbes(rec *recorder, budget time.Duration, tmp string, wl *workload, seed int64) (vals map[string]float64, err error) {
	defer func() {
		if e := recover(); e != nil {
			err = fmt.Errorf("probe failed: %v", e)
		}
	}()
	pr := &prober{rec: rec, budget: budget, vals: make(map[string]float64)}
	g, err := wl.build(seed, 0)
	must(err)
	pr.micros("datatype.build_us", func() {
		_, err := wl.build(seed, 0)
		must(err)
	})
	dir, err := os.MkdirTemp(tmp, "probe-")
	must(err)
	defer os.RemoveAll(dir)

	pr.roof(dir)
	pr.datatypes(g)
	pr.mpi()
	pr.transport()
	pr.storage(dir)
	pr.ioserver(dir, g)
	pr.vals["fotf.prog_over_memcpy"] = pr.vals["fotf.pack_prog_MBps"] / pr.vals["roof.memcpy_MBps"]
	pr.vals["transport.tcp_over_roof"] = pr.vals["transport.tcp_stream_MBps"] / pr.vals["roof.tcp_MBps"]
	return pr.vals, nil
}

// tcpPair returns the two ends of one 127.0.0.1 connection.  The dial
// completes in the listener's backlog, so no goroutine is needed.
func tcpPair() (a, b net.Conn) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	defer ln.Close()
	a, err = net.Dial("tcp", ln.Addr().String())
	must(err)
	b, err = ln.Accept()
	must(err)
	return a, b
}

func (pr *prober) roof(dir string) {
	src, dst := make([]byte, roofBytes), make([]byte, roofBytes)
	for i := range src {
		src[i] = byte(i)
	}
	pr.mbps("roof.memcpy_MBps", roofBytes, func() { copy(dst, src) })

	// Raw loopback TCP: one writer, one reader that discards, an
	// acknowledgement byte per chunk batch so the timing covers delivery.
	a, b := tcpPair()
	const batch = 16
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, probeChunk)
		for {
			for i := 0; i < batch; i++ {
				if _, err := io.ReadFull(b, buf); err != nil {
					return
				}
			}
			if _, err := b.Write(buf[:1]); err != nil {
				return
			}
		}
	}()
	chunk, ack := src[:probeChunk], make([]byte, 1)
	pr.mbps("roof.tcp_MBps", batch*probeChunk, func() {
		for i := 0; i < batch; i++ {
			_, err := a.Write(chunk)
			must(err)
		}
		_, err := io.ReadFull(a, ack)
		must(err)
	})
	a.Close()
	<-done
	b.Close()

	f, err := os.OpenFile(filepath.Join(dir, "roof"), os.O_RDWR|os.O_CREATE, 0o644)
	must(err)
	defer f.Close()
	const fileBytes = 32 << 20
	pr.mbps("roof.file_MBps", fileBytes, func() {
		for off := int64(0); off < fileBytes; off += probeChunk {
			_, err := f.WriteAt(chunk, off)
			must(err)
		}
	})
	pr.micros("roof.fsync_us", func() {
		_, err := f.WriteAt(chunk[:4096], 0)
		must(err)
		must(f.Sync())
	})
}

// datatypes covers the datatype, flatten and fotf layers.  The type that
// is packed is the memory type where that is non-contiguous and the
// filetype otherwise, over a typed buffer of one op's size.
func (pr *prober) datatypes(g geometry) {
	enc := datatype.Encode(g.ftype)
	pr.vals["datatype.encode_bytes"] = float64(len(enc))
	pr.micros("datatype.codec_us", func() {
		_, err := datatype.Decode(datatype.Encode(g.ftype))
		must(err)
	})

	t, count := g.mtype, g.count
	if t.ContiguousTiled() {
		t, count = g.ftype, 1
	}
	d := count * t.Size()
	typed := make([]byte, (count-1)*t.Extent()+t.TrueUB())
	for i := range typed {
		typed[i] = byte(i * 7)
	}
	packed := make([]byte, probeWindow)
	windows := func(fn func(c []byte, skip int64)) func() {
		return func() {
			for skip := int64(0); skip < d; skip += probeWindow {
				fn(packed[:min(probeWindow, d-skip)], skip)
			}
		}
	}

	var list flatten.List
	pr.vals["flatten.flatten_ms"] = 1e3 * pr.seconds("flatten.flatten_ms", func() { list = flatten.Flatten(t) })
	pr.vals["flatten.list_bytes"] = float64(list.Footprint())
	pr.mbps("flatten.packlist_MBps", d, windows(func(c []byte, skip int64) {
		flatten.PackList(c, typed, list, t.Extent(), count, skip, int64(len(c)))
	}))

	var prog *fotf.Program
	pr.micros("fotf.compile_us", func() { prog = fotf.Compile(t) })
	pr.vals["fotf.groups"] = float64(prog.Groups())
	pr.mbps("fotf.pack_walk_MBps", d, windows(func(c []byte, skip int64) {
		fotf.PackCount(c, typed, count, t, skip)
	}))
	if prog == nil {
		// The type declined compilation; core then runs the walk.
		pr.vals["fotf.pack_prog_MBps"] = pr.vals["fotf.pack_walk_MBps"]
		pr.vals["fotf.unpack_prog_MBps"] = pr.vals["fotf.pack_walk_MBps"]
	} else {
		pr.mbps("fotf.pack_prog_MBps", d, windows(func(c []byte, skip int64) {
			prog.PackCount(c, typed, count, skip)
		}))
		pr.mbps("fotf.unpack_prog_MBps", d, windows(func(c []byte, skip int64) {
			prog.UnpackCount(typed, c, count, skip)
		}))
	}

	const positions = 4096
	r := rand.New(rand.NewSource(1))
	at := make([]int64, positions)
	for i := range at {
		at[i] = r.Int63n(g.ftype.Size())
	}
	var sink int64
	pr.vals["fotf.startpos_ns"] = 1e9 / positions * pr.seconds("fotf.startpos_ns", func() {
		for _, d := range at {
			sink += fotf.StartPos(g.ftype, d)
		}
	})
	// The opposite direction, file offset to data offset, is what every
	// window edge of a collective costs; on an indexed type it visits the
	// blocks one by one.
	edges := at[:64]
	for i := range edges {
		edges[i] = r.Int63n(g.ftype.TrueUB())
	}
	pr.vals["fotf.buftodata_ns"] = 1e9 / float64(len(edges)) * pr.seconds("fotf.buftodata_ns", func() {
		for _, off := range edges {
			sink += fotf.BufToData(g.ftype, off)
		}
	})
	// Every run is visited, as the servers' view walk visits it.
	var nruns int64
	fd := g.ftype.Size()
	perCall := pr.seconds("fotf.runs_Mruns_s", func() {
		nruns = 0
		for d0 := int64(0); d0 < fd; d0 += probeWindow {
			fotf.Runs(g.ftype, d0, min(d0+probeWindow, fd), func(bufOff, _, _, stride, n int64) {
				for i := int64(0); i < n; i++ {
					sink += bufOff + i*stride
				}
				nruns += n
			})
		}
	})
	pr.vals["fotf.runs_Mruns_s"] = float64(nruns) / perCall / 1e6
	_ = sink
}

// world runs fn on a two-rank world over eps and panics on failure.
func world(eps []transport.Transport, fn func(p *mpi.Proc)) {
	_, err := mpi.RunOver(eps, mpi.RunOptions{}, fn)
	must(err)
}

func tcpWorld() []transport.Transport {
	eps, err := transport.NewLocalTCPWorld(ranks, transport.TCPConfig{})
	must(err)
	return eps
}

func (pr *prober) mpi() {
	for _, fab := range []struct {
		prefix string
		eps    []transport.Transport
	}{{"mpi.", transport.NewLoopback(ranks)}, {"mpi.tcp_", tcpWorld()}} {
		// Rank 0 times; rank 1 mirrors every call, told how many through
		// a broadcast so the two stay in step.
		world(fab.eps, func(p *mpi.Proc) {
			lockstep := func(fn func()) func() {
				return func() { p.Bcast(0, []byte{1}); fn() }
			}
			follow := func(fn func()) {
				for p.Bcast(0, nil)[0] == 1 {
					fn()
				}
			}
			const barriers = 100 // per call, so that the lockstep broadcast is a small share
			barrier := func() {
				for i := 0; i < barriers; i++ {
					p.Barrier()
				}
			}
			parts := [][]byte{make([]byte, probeChunk), make([]byte, probeChunk)}
			alltoall := func() { p.Alltoall(parts) }
			if p.Rank() == 0 {
				pr.micros(fab.prefix+"barrier_us", lockstep(barrier))
				pr.vals[fab.prefix+"barrier_us"] /= barriers
				p.Bcast(0, []byte{0})
				pr.mbps(fab.prefix+"alltoall_MBps", probeChunk, lockstep(alltoall))
				p.Bcast(0, []byte{0})
			} else {
				follow(barrier)
				follow(alltoall)
			}
		})
	}
}

// transport drives two endpoints of each fabric directly, below mpi.
func (pr *prober) transport() {
	const tagData, tagAck = 1, 2
	for _, fab := range []struct {
		name string
		eps  []transport.Transport
		rtt  bool
	}{{"transport.loop_stream_MBps", transport.NewLoopback(ranks), false}, {"transport.tcp_stream_MBps", tcpWorld(), true}} {
		a, b := fab.eps[0], fab.eps[1]
		dialed := make(chan error, 1)
		go func() {
			err := b.Listen()
			if err == nil {
				err = b.Dial()
			}
			dialed <- err
		}()
		must(a.Listen())
		must(a.Dial())
		must(<-dialed)
		// The peer echoes an empty acknowledgement for every data message.
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				if _, err := b.Recv(0, tagData); err != nil {
					return
				}
				if b.Send(0, tagAck, nil) != nil {
					return
				}
			}
		}()
		chunk := make([]byte, probeChunk)
		pr.mbps(fab.name, probeChunk, func() {
			must(a.Send(1, tagData, chunk))
			_, err := a.Recv(1, tagAck)
			must(err)
		})
		if fab.rtt {
			pr.micros("transport.tcp_rtt_us", func() {
				must(a.Send(1, tagData, chunk[:8]))
				_, err := a.Recv(1, tagAck)
				must(err)
			})
		}
		b.Close()
		<-done
		a.Close()
	}
}

func (pr *prober) storage(dir string) {
	const span = 8 << 20
	chunk := make([]byte, probeChunk)
	sweep := func(b storage.Backend, write bool) func() {
		return func() {
			for off := int64(0); off < span; off += probeChunk {
				var err error
				if write {
					_, err = b.WriteAt(chunk, off)
				} else {
					err = storage.ReadFull(b, chunk, off)
				}
				must(err)
			}
		}
	}
	mem := storage.NewMem()
	pr.mbps("storage.mem_write_MBps", span, sweep(mem, true))
	pr.mbps("storage.mem_read_MBps", span, sweep(mem, false))

	f, err := storage.OpenFile(filepath.Join(dir, "storage"))
	must(err)
	defer f.Close()
	pr.mbps("storage.file_write_MBps", span, sweep(f, true))
	pr.micros("storage.file_sync_us", func() {
		_, err := f.WriteAt(chunk[:probeWindow], 0)
		must(err)
		must(f.Sync())
	})

	// Scatter write of 4096 64-byte pieces at a 1 KiB stride into memory:
	// one vectored call against one call per piece.
	segs := make([]storage.Segment, 4096)
	for i := range segs {
		segs[i] = storage.Segment{Off: int64(i) * 1024, Buf: chunk[i*64 : (i+1)*64]}
	}
	loop := pr.seconds("storage.writev_over_loop", func() {
		for _, s := range segs {
			_, err := mem.WriteAt(s.Buf, s.Off)
			must(err)
		}
	})
	vec := pr.seconds("storage.writev_over_loop", func() { must(storage.WriteAtv(mem, segs)) })
	pr.vals["storage.writev_over_loop"] = loop / vec
}

// ioserver drives a tier of its own: raw and view-addressed transfers of
// one instance of the workload's filetype, and the journal underneath.
func (pr *prober) ioserver(dir string, g geometry) {
	t, err := startTier(dir, false)
	must(err)
	defer t.stop()
	c := t.agg.Clients()[0]
	pr.micros("ioserver.rtt_us", func() { c.Size() })

	const span = 8 << 20
	chunk := make([]byte, probeChunk)
	pr.mbps("ioserver.raw_write_MBps", span, func() {
		for off := int64(0); off < span; off += probeChunk {
			_, err := c.WriteAt(chunk, off)
			must(err)
		}
	})
	pr.mbps("ioserver.raw_read_MBps", span, func() {
		for off := int64(0); off < span; off += probeChunk {
			_, err := c.ReadAt(chunk, off)
			must(err)
		}
	})

	h, err := t.agg.RegisterView(g.disp, g.ftype)
	must(err)
	// At most 1 MiB of the view: 8-byte runs move a few MB/s, and a probe
	// has a budget.
	data := make([]byte, min(g.ftype.Size(), probeChunk))
	pr.mbps("ioserver.view_write_MBps", int64(len(data)), func() { must(t.agg.ViewWrite(h, data, 0)) })
	pr.mbps("ioserver.view_read_MBps", int64(len(data)), func() { must(t.agg.ViewRead(h, data, 0)) })

	jf, err := storage.OpenFile(filepath.Join(dir, "journal"))
	must(err)
	defer jf.Close()
	j := ioserver.NewJournal(jf)
	const records = 64
	epoch := uint64(0)
	pr.vals["ioserver.journal_append_MBps"] = records * probeWindow / 1e6 / pr.secondsReset("ioserver.journal_append_MBps", func() {
		epoch++
		for i := int64(0); i < records; i++ {
			must(j.AppendStage(epoch, i*probeWindow, chunk[:probeWindow]))
		}
	}, func() { must(j.Reset()) })
	pr.micros("ioserver.journal_commit_us", func() {
		epoch++
		must(j.AppendCommit(epoch))
	})
}
