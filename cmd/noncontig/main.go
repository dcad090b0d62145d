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
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/ioserver"
	"repro/internal/noncontig"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("noncontig: ")

	f := newFlags()
	f.Parse(os.Args[1:]) // ExitOnError

	pat, err := noncontig.ParsePattern(f.pattern)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := parseEngine(f.engine)
	if err != nil {
		log.Fatal(err)
	}

	if f.netMode == "launch" {
		if msg := f.refusedUnderLaunch(); msg != "" {
			log.Fatal(msg)
		}
	}
	if f.netMode != "" && f.netMode != "server" {
		if !f.collective {
			log.Fatal("-net requires -collective: independent data sieving read-modify-writes the shared file under a per-process lock table, which cannot exclude other rank processes")
		}
		if f.chaosSeed != 0 {
			log.Fatal("-net does not support -chaos-seed (per-process injection would desynchronize the ranks)")
		}
	}
	var stallTimeout time.Duration
	if f.netMode != "" || f.chaosSeed != 0 {
		// Over the wire, or with fault injection, a hang is possible:
		// bound it with a diagnostic.
		stallTimeout = 30 * time.Second
	}

	if f.stripeUnit <= 0 {
		log.Fatal("-stripe must be positive")
	}
	switch f.netMode {
	case "":
		// fall through to the in-process run below
	case "launch":
		netLaunch(f)
		return
	case "server":
		runServer(serverConfig{
			index: f.netIndex, count: f.servers, stripe: f.stripeUnit,
			file: f.file, tracePath: f.tracePath, flight: f.flight,
		}, newCollector(f))
		return
	case "rank":
		// handled below: same config assembly, different backend + runner
	default:
		log.Fatalf("unknown -net mode %q (want launch, rank, or server)", f.netMode)
	}

	isRank := f.netMode == "rank"
	proc := "local"
	if isRank {
		proc = fmt.Sprintf("rank%d", f.netRank)
	}
	collector := newCollector(f)
	rec := trace.NewRecorder(f.flight, proc, collector, nil)
	rec.Start(0)
	defer func() {
		rec.Stop()
		rec.Dump("clean exit")
	}()
	var backend storage.Backend
	var agg *ioserver.Striped
	if isRank {
		if f.netRank < 0 || f.netRank >= f.p {
			log.Fatalf("-net rank requires -net-rank in [0, %d)", f.p)
		}
		if f.serverAddrs != "" {
			var copts ioserver.ClientOptions
			if f.wireChaosSeed != 0 {
				copts.Timeout = 500 * time.Millisecond // a dropped frame costs one deadline, not 30s
				copts.WireChaos = &transport.WireChaosConfig{
					Seed:       f.wireChaosSeed,
					PSpike:     0.02,
					PDrop:      0.01,
					PDup:       0.01,
					PCorrupt:   0.01,
					PReset:     0.005,
					PPartition: 0.002,
				}
			}
			a, err := ioserver.NewStriped(f.stripeUnit, strings.Split(f.serverAddrs, ","), copts)
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
			if f.file == "" {
				log.Fatal("-net rank requires -file (the shared data file) or -server-addrs")
			}
			fb, err := storage.OpenFileShared(f.file)
			if err != nil {
				log.Fatal(err)
			}
			defer fb.Close()
			backend = fb
		}
	} else {
		backend = storage.NewMem()
		if f.file != "" {
			fb, err := storage.OpenFile(f.file)
			if err != nil {
				log.Fatal(err)
			}
			defer fb.Close()
			defer os.Remove(f.file)
			backend = fb
		}
	}
	if f.latency > 0 {
		backend = storage.NewThrottled(backend, f.latency)
	}

	// Chaos goes outermost on the storage side so every injected fault
	// passes through the Resilient retry policy before the I/O layer
	// sees it; recoverable-only injection keeps the run correct.
	var chaos *storage.Chaos
	var resilient *storage.Resilient
	if f.chaosSeed != 0 {
		chaos = storage.NewChaos(f.chaosSeed, backend, storage.TransientOnly())
		chaos.SetTracer(collector.Storage())
		resilient = storage.NewResilient(chaos, storage.ResilientConfig{Seed: f.chaosSeed + 1})
		resilient.SetTracer(collector.Storage())
		backend = resilient
	}
	if collector != nil {
		// Outermost wrapper: spans cover the whole retry loop of each
		// operation, on the shared storage-backend track.
		in := storage.NewInstrumented(backend)
		in.SetTracer(collector.Storage())
		backend = in
	}

	cfg := noncontig.Config{
		P:            f.p,
		Blockcount:   f.nblock,
		Blocklen:     f.sblock,
		Pattern:      pat,
		Collective:   f.collective,
		Engine:       eng,
		Backend:      backend,
		Trace:        collector,
		StallTimeout: stallTimeout,
		OnStall:      func(diag string) { rec.Dump("watchdog stall: " + diag) },
	}
	cfg.Reps = autoReps(cfg.DataPerProc())

	var res noncontig.Result
	if isRank {
		cfgT := transport.TCPConfig{
			Rank: f.netRank, Size: f.p,
			Rendezvous: f.netRendezvous,
			Trace:      collector,
		}
		if f.netFD > 0 {
			l, err := transport.ListenerFromFD(f.netFD)
			if err != nil {
				log.Fatal(err)
			}
			cfgT.Listener = l
		} else if f.netRank == 0 && f.netRendezvous != "" {
			cfgT.Rendezvous = f.netRendezvous // rank 0 binds it itself
		} else if f.netRank > 0 && f.netRendezvous == "" {
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

	if isRank && f.netRank != 0 {
		// Only rank 0 prints the report; the others confirm and exit.
		fmt.Printf("rank %d ok: %s moved, wire %s out / %s in\n",
			f.netRank, humanBytes(cfg.DataPerProc()*int64(cfg.Reps)*2),
			humanBytes(res.Comm.WireBytesSent), humanBytes(res.Comm.WireBytesRecv))
		if agg != nil {
			fmt.Printf("rank %d storage: %d server round-trips\n", f.netRank, agg.Rounds())
		}
		writeTrace(f.tracePath, collector)
		return
	}

	mode := "independent"
	if f.collective {
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
	fmt.Printf("  world comm: %d messages (%d loans), %s payload, %v recv wait\n",
		res.Comm.Messages, res.Comm.Refs, humanBytes(res.Comm.Bytes),
		time.Duration(res.Comm.RecvWaitNs).Round(time.Microsecond))
	if res.Comm.WireBytesSent > 0 || res.Comm.WireBytesRecv > 0 {
		fmt.Printf("  wire: %s sent, %s received (frame headers included)\n",
			humanBytes(res.Comm.WireBytesSent), humanBytes(res.Comm.WireBytesRecv))
	}
	if agg != nil {
		fmt.Printf("  storage tier: %d servers, stripe %s, %d round-trips from this rank\n",
			len(agg.Clients()), humanBytes(f.stripeUnit), agg.Rounds())
		if st, err := agg.ServerStats(); err == nil {
			fmt.Printf("    server totals: %s\n", st)
		}
	}
	if chaos != nil {
		st := chaos.Stats()
		retries, exhausted := resilient.RetryStats()
		fmt.Printf("  chaos(seed=%d): %d transients, %d short reads, %d torn writes, %d spikes; %d retries, %d exhausted\n",
			f.chaosSeed, st.Transients, st.ShortReads, st.TornWrites, st.LatencySpikes, retries, exhausted)
	}
	fmt.Println("  verification: OK")
	if f.traceSumm {
		fmt.Print(collector.Summary())
	}
	writeTrace(f.tracePath, collector)
}

// launchTimeout bounds a whole -net launch run: past it the launcher
// kills every child.
const launchTimeout = 5 * time.Minute

// netLaunch forks one rank process per rank against a shared file (or,
// with -servers, against a tier of server processes forked first) and
// supervises them.  Each child's argument list is what launch sets for
// it plus the forwarded part of this command line (flags.childArgs).
func netLaunch(f *flags) {
	if f.servers == 0 && (f.serverRestarts > 0 || f.killServer > 0 || f.wireChaosSeed != 0) {
		log.Fatal("-server-restarts, -kill-server, and -wire-chaos-seed require -servers")
	}
	if f.killServer > 0 && f.serverRestarts == 0 {
		log.Fatal("-kill-server needs -server-restarts > 0, or the killed server stays dead and the run fails")
	}
	// With an I/O-server tier the ranks mount the servers instead of a
	// shared local file; -file then names optional per-server stripe
	// persistence, not rank-shared state.
	if f.servers == 0 {
		if f.file == "" {
			tmp, err := os.CreateTemp("", "noncontig-net-*.dat")
			if err != nil {
				log.Fatal(err)
			}
			tmp.Close()
			if err := f.Set("file", tmp.Name()); err != nil {
				log.Fatal(err)
			}
		}
		defer os.Remove(f.file)
	}
	if f.flight != "" {
		if err := os.MkdirAll(f.flight, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	lo := transport.LaunchOptions{
		Size: f.p, Exe: exe, Timeout: launchTimeout,
		Args: func(rank int, rendezvous string, serverAddrs []string) []string {
			set := []string{"-net=rank", fmt.Sprint("-net-rank=", rank)}
			if rank == 0 {
				set = append(set, fmt.Sprint("-net-fd=", transport.RendezvousFD))
			} else {
				set = append(set, "-net-rendezvous="+rendezvous)
			}
			if f.servers > 0 {
				set = append(set, "-server-addrs="+strings.Join(serverAddrs, ","))
			}
			return f.childArgs(roleRank, rank, set...)
		},
		Servers: f.servers,
		ServerArgs: func(idx int) []string {
			return f.childArgs(roleServer, idx, "-net=server", fmt.Sprint("-net-index=", idx))
		},
		ServerRestarts:  f.serverRestarts,
		KillServerAfter: f.killServer,
	}
	if f.flight != "" {
		// Preserve a crashed server's dying breath: the supervised
		// restart would let the replacement overwrite its flight dump.
		lo.OnServerRestart = func(idx, attempt int) {
			dump, _ := f.childValue("flight", roleServer, idx)
			os.Rename(dump, fmt.Sprintf("%s.crash%d", dump, attempt))
		}
	}
	err = transport.Launch(lo)
	if f.tracePath != "" {
		// Merge the per-process traces into one file spanning every rank
		// and server (best effort on a failed run: the survivors still
		// merge; a crashed process may have no trace to contribute).
		mergeTraces(f)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// mergeTraces folds the launcher's per-process Chrome traces
// (<path>.rankN, <path>.srvK) into one file at path with one track per
// process and removes the parts.
func mergeTraces(f *flags) {
	var ins []trace.MergeInput
	for r := 0; r < f.p; r++ {
		path, _ := f.childValue("trace", roleRank, r)
		ins = append(ins, trace.MergeInput{Path: path, Proc: fmt.Sprintf("rank %d", r)})
	}
	for s := 0; s < f.servers; s++ {
		path, _ := f.childValue("trace", roleServer, s)
		ins = append(ins, trace.MergeInput{Path: path, Proc: fmt.Sprintf("srv %d", s)})
	}
	n, err := trace.MergeChromeFiles(f.tracePath, ins)
	if err != nil {
		log.Printf("trace merge: %v", err)
		return
	}
	fmt.Printf("  trace: %s (%d of %d process traces merged; load in chrome://tracing or Perfetto)\n", f.tracePath, n, len(ins))
	for _, in := range ins {
		os.Remove(in.Path)
	}
}

// newCollector is one process's span collector, made the same way for
// every role: a full ring when the run's trace is wanted (-trace,
// -trace-summary), a small always-on one when only the flight recorder
// reads it — enough recent spans for a post-mortem without full-trace
// memory — else nil.
func newCollector(f *flags) *trace.Collector {
	switch {
	case f.tracePath != "" || f.traceSumm:
		return trace.NewCollector(trace.DefaultBufSize)
	case f.flight != "":
		return trace.NewCollector(trace.RecorderBufSize)
	}
	return nil
}

// serverConfig carries the -net server role's flags.
type serverConfig struct {
	index, count int
	stripe       int64
	file         string
	tracePath    string
	flight       string
}

// runServer is the -net server role: adopt the pre-bound listener the
// launcher passed at fd 3, serve this stripe until interrupted, then
// sync, report, and flush the trace.  A file-backed stripe keeps its
// intent journal at <file>.journal: recovery replays committed epochs
// and discards uncommitted ones before serving, so a supervised restart
// after a crash (or SIGKILL) resumes from the last commit point.
func runServer(sc serverConfig, collector *trace.Collector) {
	if sc.count <= 0 || sc.index < 0 || sc.index >= sc.count {
		log.Fatalf("-net server requires -net-index in [0, %d)", sc.count)
	}
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
		in := storage.NewInstrumented(backend)
		in.SetTracer(collector.Storage())
		backend = in
	}

	srv, err := ioserver.New(ioserver.Config{
		Backend:  backend,
		Geom:     storage.StripeGeom{Unit: sc.stripe, Count: sc.count},
		Index:    sc.index,
		Journal:  journal,
		Tracer:   collector.Storage(),
		Recovery: recov,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The dump prints the server's Stats beside its spans: they are
	// atomic, so the persist loop may read them while requests run.
	rec := trace.NewRecorder(sc.flight, fmt.Sprintf("srv%d", sc.index), collector,
		func() string { return srv.Stats().String() })
	rec.Start(0)
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
	rec.Stop()
	rec.Dump("shutdown")
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
