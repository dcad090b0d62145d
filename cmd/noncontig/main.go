// Command noncontig runs the paper's synthetic benchmark (§4.1) for one
// parameter combination and prints the measured per-process bandwidth
// and the engine work counters.
//
// Example:
//
//	noncontig -p 8 -nblock 4096 -sblock 8 -pattern nc-nc -collective -engine listless
//
// By default the ranks are goroutines in this process.  With -net the
// ranks become separate OS processes exchanging over TCP:
//
//	noncontig -net launch -p 4 -nblock 1024 -sblock 64 -pattern nc-nc -collective
//
// forks one rank process per rank (re-executing this binary with
// -net rank), hands rank 0 the pre-bound rendezvous socket, and
// supervises the run; every rank opens the shared file itself under a
// shared advisory lock.  -net requires -collective: collective I/O
// partitions the file into disjoint domains, which is what makes
// cross-process access safe without a shared lock table.
//
// With -servers the file moves behind a tier of I/O-server processes,
// each owning one stripe of the file and evaluating registered fileview
// patterns server-side:
//
//	noncontig -net launch -p 4 -servers 2 -stripe 65536 -nblock 1024 -sblock 64 -pattern nc-nc -collective
//
// launches the servers first (each adopting a pre-bound listener), then
// the ranks with -server-addrs pointing at them; the ranks mount the
// striped remote backend instead of a shared local file.  When every
// rank has exited the launcher interrupts the servers, which sync their
// stripes, print their request stats, and flush their traces.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/ioserver"
	"repro/internal/noncontig"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("noncontig: ")

	var (
		p          = flag.Int("p", 2, "number of processes")
		nblock     = flag.Int64("nblock", 1024, "N_block: blocks per process")
		sblock     = flag.Int64("sblock", 8, "S_block: bytes per block")
		pattern    = flag.String("pattern", "nc-nc", "access pattern: c-c, nc-c, c-nc, nc-nc")
		collective = flag.Bool("collective", false, "use collective access")
		engine     = flag.String("engine", "listless", "datatype engine: listless or list-based")
		reps       = flag.Int("reps", 0, "write+read repetitions (0 = auto)")
		verify     = flag.Bool("verify", true, "verify read-back data")
		tiles      = flag.Int64("tiles", 1, "filetype instances per access (scales the file size)")
		sieveBuf   = flag.Int("sievebuf", 0, "data-sieving buffer bytes (0 = default)")
		collBuf    = flag.Int("collbuf", 0, "collective buffer bytes (0 = default)")
		ioNodes    = flag.Int("ionodes", 0, "number of I/O processes (0 = all)")
		noProgram  = flag.Bool("no-program", false, "disable compiled datatype copy programs: pack and position through the recursive walk on every window (the ablation baseline)")
		file       = flag.String("file", "", "back the run with this file instead of memory")
		readBW     = flag.Int64("read-bw", 0, "throttle: backend read bandwidth in bytes/s")
		writeBW    = flag.Int64("write-bw", 0, "throttle: backend write bandwidth in bytes/s")
		latency    = flag.Duration("latency", 0, "throttle: per-operation backend latency")
		chaosSeed  = flag.Int64("chaos-seed", 0, "inject seeded transient storage faults, ridden out by retries (0 = off)")
		tracePath  = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (load in chrome://tracing or Perfetto)")
		traceSumm  = flag.Bool("trace-summary", false, "print the per-phase imbalance summary of the traced run")
		stall      = flag.Duration("stall", 0, "stall watchdog timeout (0 = default: off in-process, 30s with -net)")

		netMode       = flag.String("net", "", `process model: "" (goroutine ranks), "launch" (fork one OS process per rank over TCP), "rank" (run as one such rank; set by launch), "server" (run as one I/O server; set by launch)`)
		netRank       = flag.Int("net-rank", -1, "this process's rank (with -net rank)")
		netRendezvous = flag.String("net-rendezvous", "", "rank 0's rendezvous address (with -net rank, ranks > 0)")
		netFD         = flag.Int("net-fd", 0, "inherited rendezvous listener fd (with -net rank, rank 0)")
		netTimeout    = flag.Duration("net-timeout", 5*time.Minute, "kill the whole -net launch run after this long")

		servers        = flag.Int("servers", 0, "with -net launch: number of I/O-server processes to stripe the file across")
		stripeUnit     = flag.Int64("stripe", 64<<10, "stripe unit bytes of the I/O-server tier")
		serverAddrs    = flag.String("server-addrs", "", "comma-separated I/O-server addresses to mount as the backend (with -net rank; set by launch)")
		netIndex       = flag.Int("net-index", -1, "this server's stripe index (with -net server; set by launch)")
		serverRestarts = flag.Int("server-restarts", 0, "with -net launch -servers: restart a crashed I/O server up to this many times on its inherited listener")
		killServer     = flag.Duration("kill-server", 0, "with -net launch -servers: SIGKILL server 0 after this long, to demonstrate supervised recovery (0 = off)")
		wireChaosSeed  = flag.Int64("wire-chaos-seed", 0, "inject seeded wire faults (drops, dups, header corruption, resets, partitions) on this rank's server connections (0 = off)")

		jobs        = flag.Int("jobs", 0, "run N concurrent I/O sessions through the shared session service (in-process; each session is a world of -p ranks over its own file region; 0 = off)")
		workers     = flag.Int("workers", 0, "with -jobs: shared worker-pool slots bounding collectives in flight (0 = default 4)")
		queueCap    = flag.Int("queue", 0, "with -jobs: admission queue depth; arrivals beyond it are rejected (0 = default 64)")
		fifoSched   = flag.Bool("fifo", false, "with -jobs: admit in arrival order instead of weighted-fair")
		noSessCache = flag.Bool("no-session-cache", false, "with -jobs: disable the per-session write-behind/read-ahead cache")
		conns       = flag.Int("conns", 0, "with -jobs -servers: client connections per I/O server (0 = 1)")

		metricsAddr = flag.String("metrics-addr", "", "serve a Prometheus /metrics endpoint on this address (e.g. 127.0.0.1:0; the bound address is printed as \"metrics <proc> <addr>\")")
		metricsFD   = flag.Int("metrics-fd", 0, "inherited metrics listener fd (set by launch)")
		metricsPush = flag.String("metrics-push", "", "push the final metrics snapshot to this launcher collector address on clean exit (set by launch)")
		noMetrics   = flag.Bool("no-metrics", false, "disable the metrics registry entirely (the overhead-measurement baseline)")
		traceSplit  = flag.Bool("trace-split", false, "with -net launch -trace: keep the per-process trace files next to the merged one")
		flight      = flag.String("flight", "", "flight recorder: periodically persist recent spans and metrics to this path, dumped on SIGQUIT, collective fault, or watchdog stall and surviving SIGKILL (with -net launch: a directory, one dump per process)")
	)
	flag.Parse()

	pat, err := noncontig.ParsePattern(*pattern)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := parseEngine(*engine)
	if err != nil {
		log.Fatal(err)
	}

	if *netMode != "" && *netMode != "server" {
		if !*collective {
			log.Fatal("-net requires -collective: independent data sieving read-modify-writes the shared file under a per-process lock table, which cannot exclude other rank processes")
		}
		if *chaosSeed != 0 {
			log.Fatal("-net does not support -chaos-seed (per-process injection would desynchronize the ranks)")
		}
	}
	stallTimeout := *stall
	if *netMode != "" && stallTimeout == 0 {
		stallTimeout = 30 * time.Second
	}

	if *stripeUnit <= 0 {
		log.Fatal("-stripe must be positive")
	}
	if *jobs > 0 {
		if *netMode != "" {
			log.Fatal("-jobs runs in-process; combine it with -servers for an in-process server tier, not with -net")
		}
		runJobs(jobsFlags{
			jobs: *jobs, ranks: *p,
			nblock: *nblock, sblock: *sblock, reps: *reps,
			workers: *workers, queue: *queueCap, fifo: *fifoSched,
			noCache: *noSessCache,
			servers: *servers, stripe: *stripeUnit, conns: *conns,
			readBW: *readBW, writeBW: *writeBW, latency: *latency,
			verify: *verify, engine: eng,
			sieveBuf: *sieveBuf, collBuf: *collBuf,
			obs:   obsFlags{metricsAddr: *metricsAddr, noMetrics: *noMetrics},
			stall: stallTimeout,
		})
		return
	}
	of := obsFlags{
		noMetrics: *noMetrics, metricsAddr: *metricsAddr, metricsFD: *metricsFD, metricsPush: *metricsPush,
		fullTrace: *tracePath != "" || *traceSumm, flight: *flight,
	}
	switch *netMode {
	case "":
		// fall through to the in-process run below
	case "launch":
		netLaunch(*p, pat, eng, launchFlags{
			nblock: *nblock, sblock: *sblock, reps: *reps, verify: *verify, tiles: *tiles,
			sieveBuf: *sieveBuf, collBuf: *collBuf, ioNodes: *ioNodes,
			noProgram: *noProgram, servers: *servers, stripe: *stripeUnit,
			serverRestarts: *serverRestarts, killServer: *killServer, wireChaosSeed: *wireChaosSeed,
			file: *file, readBW: *readBW, writeBW: *writeBW, latency: *latency,
			tracePath: *tracePath, stall: stallTimeout, timeout: *netTimeout,
			traceSplit: *traceSplit, flight: *flight, noMetrics: *noMetrics,
		})
		return
	case "server":
		runServer(serverConfig{
			index: *netIndex, count: *servers, stripe: *stripeUnit,
			file: *file, tracePath: *tracePath, obs: of,
		})
		return
	case "rank":
		// handled below: same config assembly, different backend + runner
	default:
		log.Fatalf("unknown -net mode %q (want launch, rank, or server)", *netMode)
	}

	isRank := *netMode == "rank"
	proc := "local"
	if isRank {
		proc = fmt.Sprintf("rank%d", *netRank)
	}
	reg, collector, rec, obsDone := setupObs(proc, of)
	var backend storage.Backend
	var agg *ioserver.Striped
	if isRank {
		if *netRank < 0 || *netRank >= *p {
			log.Fatalf("-net rank requires -net-rank in [0, %d)", *p)
		}
		if *serverAddrs != "" {
			copts := ioserver.ClientOptions{Metrics: reg}
			if *wireChaosSeed != 0 {
				copts.Timeout = 500 * time.Millisecond // a dropped frame costs one deadline, not 30s
				copts.WireChaos = &transport.WireChaosConfig{
					Seed:       *wireChaosSeed,
					PSpike:     0.02,
					PDrop:      0.01,
					PDup:       0.01,
					PCorrupt:   0.01,
					PReset:     0.005,
					PPartition: 0.002,
				}
			}
			a, err := ioserver.NewStriped(*stripeUnit, strings.Split(*serverAddrs, ","), copts)
			if err != nil {
				log.Fatal(err)
			}
			defer a.Close()
			agg = a
			// The remote tier rides behind the retry policy: a server
			// bounce or an injected wire fault surfaces as a transient,
			// and the client's reconnect + stage-log replay heals it.
			backend = storage.NewResilient(a, storage.ResilientConfig{
				MaxRetries:  30,
				BaseBackoff: 2 * time.Millisecond,
				MaxBackoff:  200 * time.Millisecond,
			})
		} else {
			if *file == "" {
				log.Fatal("-net rank requires -file (the shared data file) or -server-addrs")
			}
			fb, err := storage.OpenFileShared(*file)
			if err != nil {
				log.Fatal(err)
			}
			defer fb.Close()
			backend = fb
		}
	} else {
		backend = storage.NewMem()
		if *file != "" {
			fb, err := storage.OpenFile(*file)
			if err != nil {
				log.Fatal(err)
			}
			defer fb.Close()
			defer os.Remove(*file)
			backend = fb
		}
	}
	if *readBW > 0 || *writeBW > 0 || *latency > 0 {
		backend = storage.NewThrottled(backend, *readBW, *writeBW, *latency)
	}
	// A clean exit pushes the final snapshot to the launcher, so a rank
	// that finishes between two scrape ticks still lands in the merged
	// run report (a crashed rank is covered by its last-good scrape).
	defer obsDone("clean exit")

	// Chaos goes outermost on the storage side so every injected fault
	// passes through the Resilient retry policy before the I/O layer
	// sees it; recoverable-only injection keeps the run correct.
	var chaos *storage.Chaos
	var resilient *storage.Resilient
	if *chaosSeed != 0 {
		chaos = storage.NewChaos(*chaosSeed, backend, storage.TransientOnly())
		chaos.SetTracer(collector.Storage())
		resilient = storage.NewResilient(chaos, storage.ResilientConfig{Seed: *chaosSeed + 1})
		resilient.SetTracer(collector.Storage())
		backend = resilient
	}
	if collector != nil {
		// Outermost wrapper: spans cover the whole retry loop of each
		// operation, on the shared storage-backend track.
		backend = storage.NewTraced(backend, collector.Storage())
	}

	cfg := noncontig.Config{
		P:          *p,
		Blockcount: *nblock,
		Blocklen:   *sblock,
		Pattern:    pat,
		Collective: *collective,
		Engine:     eng,
		Reps:       *reps,
		Verify:     *verify,
		Tiles:      *tiles,
		Backend:    backend,
		Options: core.Options{
			SieveBufSize:   *sieveBuf,
			CollBufSize:    *collBuf,
			IONodes:        *ioNodes,
			DisableProgram: *noProgram,
		},
		Trace:        collector,
		Metrics:      reg,
		StallTimeout: stallTimeout,
		OnStall:      func(diag string) { rec.Dump("watchdog stall: " + diag) },
	}
	if cfg.Reps == 0 {
		cfg.Reps = autoReps(cfg.DataPerProc())
	}
	if *chaosSeed != 0 && cfg.StallTimeout == 0 {
		// Fault injection can expose hangs; bound them with a diagnostic.
		cfg.StallTimeout = 30 * time.Second
	}

	var res noncontig.Result
	if isRank {
		cfgT := transport.TCPConfig{
			Rank: *netRank, Size: *p,
			Rendezvous: *netRendezvous,
			Trace:      collector,
		}
		if *netFD > 0 {
			l, err := transport.ListenerFromFD(*netFD)
			if err != nil {
				log.Fatal(err)
			}
			cfgT.Listener = l
		} else if *netRank == 0 && *netRendezvous != "" {
			cfgT.Rendezvous = *netRendezvous // rank 0 binds it itself
		} else if *netRank > 0 && *netRendezvous == "" {
			log.Fatal("-net rank needs -net-rendezvous (or -net-fd for rank 0)")
		}
		res, err = noncontig.RunRank(cfg, transport.NewTCP(cfgT))
	} else {
		res, err = noncontig.Run(cfg)
	}
	if err != nil {
		rec.Dump("collective fault: " + err.Error())
		if collector != nil {
			fmt.Fprintf(os.Stderr, "trace forensics (last events per rank):\n%s", collector.Forensics(8))
		}
		log.Fatal(err)
	}

	if isRank && *netRank != 0 {
		// Only rank 0 prints the report; the others confirm and exit.
		fmt.Printf("rank %d ok: %s moved, wire %s out / %s in\n",
			*netRank, humanBytes(cfg.DataPerProc()*int64(cfg.Reps)*2),
			humanBytes(res.Comm.WireBytesSent), humanBytes(res.Comm.WireBytesRecv))
		if agg != nil {
			fmt.Printf("rank %d storage: %d server round-trips\n", *netRank, agg.Rounds())
		}
		writeTrace(*tracePath, collector)
		return
	}

	mode := "independent"
	if *collective {
		mode = "collective"
	}
	if isRank {
		mode += "/tcp"
	}
	fmt.Printf("noncontig %s %s %s  P=%d  N_block=%d  S_block=%dB  data/proc=%s  reps=%d\n",
		mode, pat, eng, cfg.P, cfg.Blockcount, cfg.Blocklen,
		humanBytes(cfg.DataPerProc()), cfg.Reps)
	fmt.Printf("  write: %10.2f MB/s per process   (%v total)\n", res.WriteBpp, res.WriteTime.Round(time.Microsecond))
	fmt.Printf("  read:  %10.2f MB/s per process   (%v total)\n", res.ReadBpp, res.ReadTime.Round(time.Microsecond))
	fmt.Println("  rank-0 stats:")
	for _, line := range strings.Split(strings.TrimRight(res.Stats.String(), "\n"), "\n") {
		fmt.Printf("    %s\n", line)
	}
	fmt.Printf("  world comm: %d messages, %s payload, %v recv wait\n",
		res.Comm.Messages, humanBytes(res.Comm.Bytes), time.Duration(res.Comm.RecvWaitNs).Round(time.Microsecond))
	if res.Comm.WireBytesSent > 0 || res.Comm.WireBytesRecv > 0 {
		fmt.Printf("  wire: %s sent, %s received (frame headers included)\n",
			humanBytes(res.Comm.WireBytesSent), humanBytes(res.Comm.WireBytesRecv))
	}
	if agg != nil {
		fmt.Printf("  storage tier: %d servers, stripe %s, %d round-trips from this rank\n",
			len(agg.Clients()), humanBytes(*stripeUnit), agg.Rounds())
		if st, err := agg.ServerStats(); err == nil {
			fmt.Printf("    server totals: %s\n", st)
		}
	}
	if chaos != nil {
		st := chaos.Stats()
		retries, exhausted := resilient.RetryStats()
		fmt.Printf("  chaos(seed=%d): %d transients, %d short reads, %d torn writes, %d spikes; %d retries, %d exhausted\n",
			*chaosSeed, st.Transients, st.ShortReads, st.TornWrites, st.LatencySpikes, retries, exhausted)
	}
	if *verify {
		fmt.Println("  verification: OK")
	}
	if *traceSumm {
		fmt.Print(collector.Summary())
	}
	writeTrace(*tracePath, collector)
}

// launchFlags carries the benchmark parameters the launcher forwards to
// every rank process.
type launchFlags struct {
	nblock, sblock    int64
	reps              int
	verify            bool
	tiles             int64
	sieveBuf, collBuf int
	ioNodes           int
	noProgram         bool
	servers           int
	stripe            int64
	serverRestarts    int
	killServer        time.Duration
	wireChaosSeed     int64
	file              string
	readBW, writeBW   int64
	latency           time.Duration
	tracePath         string
	stall             time.Duration
	timeout           time.Duration
	traceSplit        bool
	flight            string
	noMetrics         bool
}

// netLaunch forks one rank process per rank against a shared file and
// supervises them.
func netLaunch(p int, pat noncontig.Pattern, eng core.Engine, lf launchFlags) {
	reps := lf.reps
	if reps == 0 {
		t := lf.tiles
		if t <= 0 {
			t = 1
		}
		reps = autoReps(t * lf.nblock * lf.sblock)
	}
	if lf.servers == 0 && (lf.serverRestarts > 0 || lf.killServer > 0 || lf.wireChaosSeed != 0) {
		log.Fatal("-server-restarts, -kill-server, and -wire-chaos-seed require -servers")
	}
	if lf.killServer > 0 && lf.serverRestarts == 0 {
		log.Fatal("-kill-server needs -server-restarts > 0, or the killed server stays dead and the run fails")
	}
	// With an I/O-server tier the ranks mount the servers instead of a
	// shared local file; -file then names optional per-server stripe
	// persistence, not rank-shared state.
	path := lf.file
	if lf.servers == 0 {
		if path == "" {
			tmp, err := os.CreateTemp("", "noncontig-net-*.dat")
			if err != nil {
				log.Fatal(err)
			}
			path = tmp.Name()
			tmp.Close()
		}
		defer os.Remove(path)
	}
	if lf.flight != "" {
		if err := os.MkdirAll(lf.flight, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	args := func(rank int, rendezvous string, serverAddrs []string) []string {
		a := []string{
			"-net", "rank",
			"-net-rank", fmt.Sprint(rank),
			"-p", fmt.Sprint(p),
			"-nblock", fmt.Sprint(lf.nblock),
			"-sblock", fmt.Sprint(lf.sblock),
			"-pattern", pat.String(),
			"-engine", eng.String(),
			"-reps", fmt.Sprint(reps),
			"-tiles", fmt.Sprint(lf.tiles),
			"-collective",
			fmt.Sprintf("-verify=%t", lf.verify),
			"-stall", lf.stall.String(),
		}
		if lf.servers > 0 {
			a = append(a,
				"-server-addrs", strings.Join(serverAddrs, ","),
				"-stripe", fmt.Sprint(lf.stripe))
			if lf.wireChaosSeed != 0 {
				// Distinct per-rank seeds: identical fault schedules on
				// every rank would synchronize the injected faults.
				a = append(a, "-wire-chaos-seed", fmt.Sprint(lf.wireChaosSeed+int64(rank)))
			}
		} else {
			a = append(a, "-file", path)
		}
		if lf.sieveBuf > 0 {
			a = append(a, "-sievebuf", fmt.Sprint(lf.sieveBuf))
		}
		if lf.collBuf > 0 {
			a = append(a, "-collbuf", fmt.Sprint(lf.collBuf))
		}
		if lf.ioNodes > 0 {
			a = append(a, "-ionodes", fmt.Sprint(lf.ioNodes))
		}
		if lf.noProgram {
			a = append(a, "-no-program")
		}
		if lf.readBW > 0 {
			a = append(a, "-read-bw", fmt.Sprint(lf.readBW))
		}
		if lf.writeBW > 0 {
			a = append(a, "-write-bw", fmt.Sprint(lf.writeBW))
		}
		if lf.latency > 0 {
			a = append(a, "-latency", lf.latency.String())
		}
		if lf.tracePath != "" {
			a = append(a, "-trace", fmt.Sprintf("%s.rank%d", lf.tracePath, rank))
		}
		if lf.noMetrics {
			a = append(a, "-no-metrics")
		}
		if lf.flight != "" {
			a = append(a, "-flight", filepath.Join(lf.flight, fmt.Sprintf("rank%d.flight", rank)))
		}
		if rank == 0 {
			a = append(a, "-net-fd", fmt.Sprint(transport.RendezvousFD))
		} else {
			a = append(a, "-net-rendezvous", rendezvous)
		}
		return a
	}
	serverArgs := func(idx int) []string {
		a := []string{
			"-net", "server",
			"-net-index", fmt.Sprint(idx),
			"-servers", fmt.Sprint(lf.servers),
			"-stripe", fmt.Sprint(lf.stripe),
		}
		if lf.file != "" {
			a = append(a, "-file", fmt.Sprintf("%s.srv%d", lf.file, idx))
		}
		if lf.tracePath != "" {
			a = append(a, "-trace", fmt.Sprintf("%s.srv%d", lf.tracePath, idx))
		}
		if lf.noMetrics {
			a = append(a, "-no-metrics")
		}
		if lf.flight != "" {
			a = append(a, "-flight", filepath.Join(lf.flight, fmt.Sprintf("srv%d.flight", idx)))
		}
		return a
	}
	lo := transport.LaunchOptions{
		Size: p, Exe: exe, Args: args, Timeout: lf.timeout,
		Servers: lf.servers, ServerArgs: serverArgs,
		ServerRestarts:  lf.serverRestarts,
		KillServerAfter: lf.killServer,
	}
	if !lf.noMetrics {
		// The launcher hands every child a pre-bound metrics listener,
		// announces the addresses ("metrics <proc> <addr>" — CI curls
		// them mid-run), scrapes everyone, and prints the merged run
		// report on exit.
		lo.Metrics = &transport.MetricsOptions{Announce: os.Stdout, Report: os.Stdout}
	}
	if lf.flight != "" {
		// Preserve a crashed server's dying breath: the supervised
		// restart would let the replacement overwrite its flight dump.
		lo.OnServerRestart = func(idx, attempt int) {
			dump := filepath.Join(lf.flight, fmt.Sprintf("srv%d.flight", idx))
			os.Rename(dump, fmt.Sprintf("%s.crash%d", dump, attempt))
		}
	}
	err = transport.Launch(lo)
	if lf.tracePath != "" {
		// Merge the per-process traces into one file spanning every rank
		// and server (best effort on a failed run: the survivors still
		// merge; a crashed process may have no trace to contribute).
		mergeTraces(lf.tracePath, p, lf.servers, lf.traceSplit)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// mergeTraces folds the launcher's per-process Chrome traces
// (<path>.rankN, <path>.srvK) into one file at path with one track per
// process; -trace-split keeps the parts.
func mergeTraces(path string, ranks, servers int, split bool) {
	var ins []trace.MergeInput
	for r := 0; r < ranks; r++ {
		ins = append(ins, trace.MergeInput{Path: fmt.Sprintf("%s.rank%d", path, r), Proc: fmt.Sprintf("rank %d", r)})
	}
	for s := 0; s < servers; s++ {
		ins = append(ins, trace.MergeInput{Path: fmt.Sprintf("%s.srv%d", path, s), Proc: fmt.Sprintf("srv %d", s)})
	}
	n, err := trace.MergeChromeFiles(path, ins)
	if err != nil {
		log.Printf("trace merge: %v", err)
		return
	}
	fmt.Printf("  trace: %s (%d of %d process traces merged; load in chrome://tracing or Perfetto)\n", path, n, len(ins))
	if !split {
		for _, in := range ins {
			os.Remove(in.Path)
		}
	}
}

// obsFlags are the observability flags a role was started with.
type obsFlags struct {
	noMetrics   bool
	metricsAddr string // -metrics-addr
	metricsFD   int    // -metrics-fd
	metricsPush string // -metrics-push
	fullTrace   bool   // the run's trace is wanted whole (-trace, -trace-summary)
	flight      string // -flight
}

// setupObs builds one process's observability, the same way for every
// role: the metrics registry (nil with -no-metrics) served on the
// launcher-inherited listener or a locally bound one, announced in the
// greppable "metrics <proc> <addr>" form; the span collector, a full
// ring when the trace is wanted, a small always-on one when only the
// flight recorder reads it — enough recent spans for a post-mortem
// without full-trace memory — else nil; and the flight recorder (nil
// without -flight).  done dumps the recorder with the given reason,
// stops it, and pushes the final snapshot to the launcher.
func setupObs(proc string, of obsFlags) (reg *obs.Registry, collector *trace.Collector, rec *obs.Recorder, done func(reason string)) {
	if !of.noMetrics {
		reg = obs.NewRegistry()
	}
	if of.fullTrace {
		collector = trace.NewCollector(trace.DefaultBufSize)
	} else if of.flight != "" {
		collector = trace.NewCollector(obs.RecorderBufSize)
	}
	if reg != nil && (of.metricsAddr != "" || of.metricsFD > 0) {
		var ln net.Listener
		var err error
		if of.metricsFD > 0 {
			ln, err = transport.ListenerFromFD(of.metricsFD)
		} else {
			ln, err = net.Listen("tcp", of.metricsAddr)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics %s %s\n", proc, ln.Addr())
		obs.Serve(ln, reg, proc)
	}
	if of.flight != "" {
		rec = obs.NewRecorder(of.flight, proc, reg, collector)
		rec.Start(0)
	}
	return reg, collector, rec, func(reason string) {
		rec.Dump(reason)
		rec.Stop()
		obs.Push(of.metricsPush, proc, reg)
	}
}

// serverConfig carries the -net server role's flags.
type serverConfig struct {
	index, count int
	stripe       int64
	file         string
	tracePath    string
	obs          obsFlags
}

// runServer is the -net server role: adopt the pre-bound listener the
// launcher passed at fd 3, serve this stripe until interrupted, then
// sync, report, and flush the trace.  A file-backed stripe keeps its
// intent journal at <file>.journal: recovery replays committed epochs
// and discards uncommitted ones before serving, so a supervised restart
// after a crash (or SIGKILL) resumes from the last commit point.
func runServer(sc serverConfig) {
	if sc.count <= 0 || sc.index < 0 || sc.index >= sc.count {
		log.Fatalf("-net server requires -net-index in [0, %d)", sc.count)
	}
	reg, collector, _, obsDone := setupObs(fmt.Sprintf("srv%d", sc.index), sc.obs)
	var backend storage.Backend = storage.NewMem()
	var journal *ioserver.Journal
	var recov ioserver.RecoveryInfo
	if sc.file != "" {
		fb, err := storage.OpenFile(sc.file)
		if err != nil {
			log.Fatal(err)
		}
		defer fb.Close()
		jb, err := storage.OpenFile(sc.file + ".journal")
		if err != nil {
			log.Fatal(err)
		}
		defer jb.Close()
		j, info, err := ioserver.RecoverJournal(jb, fb)
		if err != nil {
			log.Fatal(err)
		}
		if info.AppliedEpochs > 0 || info.DiscardedEpochs > 0 || info.TornTail {
			fmt.Printf("server %d recovery: %s\n", sc.index, info)
		}
		journal = j
		recov = info
		backend = fb
	}
	if collector != nil {
		backend = storage.NewTraced(backend, collector.Storage())
	}

	srv, err := ioserver.New(ioserver.Config{
		Backend:  backend,
		Geom:     storage.StripeGeom{Unit: sc.stripe, Count: sc.count},
		Index:    sc.index,
		Journal:  journal,
		Tracer:   collector.Storage(),
		Metrics:  reg,
		Recovery: recov,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := transport.ListenerFromFD(transport.RendezvousFD)
	if err != nil {
		log.Fatal(err)
	}

	// SIGINT and SIGTERM both mean graceful shutdown (seal the journal,
	// sync the stripe, drop connections); Close is idempotent, so repeat
	// signals are harmless.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		for range sig {
			srv.Close()
		}
	}()

	if err := srv.Serve(ln); err != nil {
		log.Fatal(err)
	}
	if err := backend.Sync(); err != nil {
		log.Fatal(err)
	}
	obsDone("shutdown")
	fmt.Printf("server %d/%d (stripe %s): %s\n", sc.index, sc.count, humanBytes(sc.stripe), srv.Stats())
	writeTrace(sc.tracePath, collector)
}

func writeTrace(path string, collector *trace.Collector) {
	if path == "" {
		return
	}
	out, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := collector.WriteChrome(out); err != nil {
		log.Fatal(err)
	}
	if err := out.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  trace: %s (%d events, %d dropped; load in chrome://tracing or Perfetto)\n",
		path, len(collector.Events()), collector.Dropped())
}

func parseEngine(s string) (core.Engine, error) {
	switch s {
	case "listless":
		return core.Listless, nil
	case "list-based", "listbased":
		return core.ListBased, nil
	}
	return 0, fmt.Errorf("unknown engine %q (want listless or list-based)", s)
}

func autoReps(dataPerProc int64) int {
	r := int((8 << 20) / dataPerProc)
	if r < 1 {
		return 1
	}
	if r > 200 {
		return 200
	}
	return r
}

func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
