package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/ioserver"
	"repro/internal/mpi"
	"repro/internal/noncontig"
	"repro/internal/session"
	"repro/internal/storage"
)

// jobsFlags carries the -jobs mode's parameters.
type jobsFlags struct {
	jobs, ranks     int
	nblock, sblock  int64
	reps            int
	workers, queue  int
	fifo            bool
	noCache         bool
	servers         int
	stripe          int64
	conns           int
	readBW, writeBW int64
	latency         time.Duration
	verify          bool
	engine          core.Engine
	sieveBuf        int
	collBuf         int
	obs             obsFlags
	stall           time.Duration
}

// jobPattern fills a session- and rank-distinct deterministic payload.
func jobPattern(sess, rank int, n int64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte((sess*53 + rank*131 + i*7 + 13) % 251)
	}
	return b
}

// runJobs is the -jobs N driver mode: N concurrent sessions, each a
// world of -p ranks over its own disjoint region of one shared store,
// submit their collectives through the shared session service.  With
// -servers the store is an in-process striped I/O-server tier mounted
// through a per-server connection pool (-conns); otherwise it is memory,
// optionally throttled.  Each session runs -reps interleaved
// write+read-back rounds of the nc-nc pattern; the report shows the
// aggregate bandwidth and each session's queue-wait and cache behaviour.
func runJobs(jf jobsFlags) {
	if jf.reps <= 0 {
		jf.reps = autoReps(jf.nblock * jf.sblock)
	}
	fileSize := int64(jf.ranks) * jf.nblock * jf.sblock
	d := jf.nblock * jf.sblock // bytes per rank per access

	reg, _, _, _ := setupObs("jobs", jf.obs)

	// The shared store all sessions carve their regions from.
	var (
		store   storage.Backend
		agg     *ioserver.Striped
		servers []*ioserver.Server
	)
	if jf.servers > 0 {
		geom := storage.StripeGeom{Unit: jf.stripe, Count: jf.servers}
		addrs := make([]string, jf.servers)
		for i := 0; i < jf.servers; i++ {
			srv, err := ioserver.New(ioserver.Config{Backend: storage.NewMem(), Geom: geom, Index: i})
			if err != nil {
				log.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				log.Fatal(err)
			}
			addrs[i] = ln.Addr().String()
			servers = append(servers, srv)
			go srv.Serve(ln)
		}
		a, err := ioserver.NewStriped(jf.stripe, addrs, ioserver.ClientOptions{Conns: jf.conns, Metrics: reg})
		if err != nil {
			log.Fatal(err)
		}
		agg = a
		store = storage.NewResilient(a, storage.ResilientConfig{})
	} else {
		store = storage.NewMem()
		if jf.readBW > 0 || jf.writeBW > 0 || jf.latency > 0 {
			store = storage.NewThrottled(store, jf.readBW, jf.writeBW, jf.latency)
		}
	}
	if err := store.Truncate(fileSize * int64(jf.jobs)); err != nil {
		log.Fatal(err)
	}

	sv := session.NewService(session.Options{
		Workers:  jf.workers,
		MaxQueue: jf.queue,
		FIFO:     jf.fifo,
		Metrics:  reg,
	})
	sessions := make([]*session.Session, jf.jobs)
	for i := range sessions {
		slice, err := storage.NewRegion(store, int64(i)*fileSize, fileSize)
		if err != nil {
			log.Fatal(err)
		}
		so := session.SessionOptions{
			Ranks: jf.ranks,
			Core: core.Options{
				Engine:       jf.engine,
				SieveBufSize: jf.sieveBuf,
				CollBufSize:  jf.collBuf,
			},
			StallTimeout: jf.stall,
		}
		if !jf.noCache {
			so.Cache = &session.CacheOptions{}
		}
		s, err2 := sv.Open(fmt.Sprintf("job%d", i), slice, so)
		if err2 != nil {
			log.Fatal(err2)
		}
		sessions[i] = s
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, jf.jobs)
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *session.Session) {
			defer wg.Done()
			errs[i] = runOneJob(i, s, jf, d)
		}(i, s)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			log.Fatalf("session %d: %v", i, err)
		}
	}

	// Per-session report before teardown, then aggregate.
	cacheMode := "write-behind+read-ahead"
	if jf.noCache {
		cacheMode = "off"
	}
	fmt.Printf("noncontig jobs=%d ranks/session=%d %s  N_block=%d  S_block=%dB  reps=%d  cache=%s\n",
		jf.jobs, jf.ranks, jf.engine, jf.nblock, jf.sblock, jf.reps, cacheMode)
	totalBytes := int64(jf.jobs) * int64(jf.ranks) * d * 2 * int64(jf.reps)
	fmt.Printf("  aggregate: %s moved in %v  (%.2f MB/s)\n",
		humanBytes(totalBytes), elapsed.Round(time.Microsecond),
		float64(totalBytes)/1e6/elapsed.Seconds())
	for i, s := range sessions {
		st := s.Stats()
		line := fmt.Sprintf("  job%d: %d collectives, %d rejected, queue wait p50/p99 %v/%v",
			i, st.Jobs, st.Rejected,
			time.Duration(st.QueueWait.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(st.QueueWait.Quantile(0.99)).Round(time.Microsecond))
		if !jf.noCache {
			c := st.Cache
			line += fmt.Sprintf("; cache %d hit / %d miss, %s absorbed, %d flushes (%s), %s prefetched",
				c.Hits, c.Misses, humanBytes(c.AbsorbedBytes), c.Flushes,
				humanBytes(c.FlushedBytes), humanBytes(c.PrefetchedBytes))
		}
		fmt.Println(line)
	}
	if err := sv.Close(); err != nil {
		log.Fatal(err)
	}
	if agg != nil {
		fmt.Printf("  storage tier: %d servers, stripe %s, %d connections, %d round-trips\n",
			jf.servers, humanBytes(jf.stripe), len(agg.AllClients()), agg.Rounds())
		if st, err := agg.ServerStats(); err == nil {
			fmt.Printf("    server totals: %s\n", st)
		}
		agg.Close()
		for _, srv := range servers {
			srv.Close()
		}
	}
	if jf.verify {
		fmt.Println("  verification: OK")
	}
}

// runOneJob is one session's workload: set the interleaved view, then
// reps rounds of collective write + collective read-back.  A round
// rejected by admission control backs off and retries — the rejection
// stays visible in the session stats.
func runOneJob(i int, s *session.Session, jf jobsFlags, d int64) error {
	if err := s.Run(func(p *mpi.Proc, f *core.File) error {
		ft, err := noncontig.Filetype(p.Rank(), jf.ranks, jf.nblock, jf.sblock)
		if err != nil {
			return err
		}
		return f.SetView(0, datatype.Byte, ft)
	}); err != nil {
		return err
	}
	if c := s.Cache(); c != nil {
		c.Invalidate()
	}
	bufs := make([][]byte, jf.ranks)
	for r := range bufs {
		bufs[r] = make([]byte, d)
	}
	retry := func(op func() error) error {
		for {
			err := op()
			if !errors.Is(err, core.ErrRejected) {
				return err
			}
			time.Sleep(time.Millisecond)
		}
	}
	for rep := 0; rep < jf.reps; rep++ {
		if err := retry(func() error {
			return s.WriteAtAll(0, d, datatype.Byte, func(rank int) []byte {
				return jobPattern(i, rank, d)
			})
		}); err != nil {
			return err
		}
		if err := retry(func() error {
			return s.ReadAtAll(0, d, datatype.Byte, func(rank int) []byte {
				return bufs[rank]
			})
		}); err != nil {
			return err
		}
		if jf.verify {
			for r := range bufs {
				if !bytes.Equal(bufs[r], jobPattern(i, r, d)) {
					return fmt.Errorf("rep %d rank %d: read-back mismatch", rep, r)
				}
			}
		}
	}
	if err := s.Sync(); err != nil {
		return err
	}
	return s.Close()
}
