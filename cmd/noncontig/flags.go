package main

import (
	"flag"
	"fmt"
	"path/filepath"
	"time"
)

// launchClass says what -net launch does with a flag given on its own
// command line.  Every flag is registered with one (def, below), and the
// child argument lists are built from the classes alone, so a flag cannot
// be dropped on the way to the rank and server processes by forgetting
// to copy it.
type launchClass uint8

const (
	toRanks      launchClass = 1 << iota // forwarded to every rank process
	toServers                            // forwarded to every server process
	launcherOnly                         // read by the launcher, never forwarded
	setByLaunch                          // launch works out each child's value itself
	refused                              // -net launch exits naming the flag
)

// flags is the driver's command line: one field per flag, and per flag
// name its launch class (and, for a refused one, why).
type flags struct {
	*flag.FlagSet
	class map[string]launchClass
	why   map[string]string

	p              int
	nblock, sblock int64
	pattern        string
	collective     bool
	engine         string
	reps           int
	verify         bool
	tiles          int64
	sieveBuf       int
	collBuf        int
	ioNodes        int
	noProgram      bool
	file           string
	readBW         int64
	writeBW        int64
	latency        time.Duration
	chaosSeed      int64
	tracePath      string
	traceSumm      bool
	stall          time.Duration

	netMode       string
	netRank       int
	netRendezvous string
	netFD         int
	netTimeout    time.Duration

	servers        int
	stripeUnit     int64
	serverAddrs    string
	netIndex       int
	serverRestarts int
	killServer     time.Duration
	wireChaosSeed  int64

	traceSplit bool
	flight     string
}

// def records name's launch class and returns name, so registration and
// classification are one line.
func (f *flags) def(name string, c launchClass) string {
	f.class[name] = c
	return name
}

// refuse is def for a flag -net launch cannot honour; why completes
// "-net launch does not support -name: ".
func (f *flags) refuse(name, why string) string {
	f.why[name] = why
	return f.def(name, refused)
}

func newFlags() *flags {
	f := &flags{
		FlagSet: flag.NewFlagSet("noncontig", flag.ExitOnError),
		class:   make(map[string]launchClass),
		why:     make(map[string]string),
	}
	both := toRanks | toServers

	f.IntVar(&f.p, f.def("p", toRanks), 2, "number of processes")
	f.Int64Var(&f.nblock, f.def("nblock", toRanks), 1024, "N_block: blocks per process")
	f.Int64Var(&f.sblock, f.def("sblock", toRanks), 8, "S_block: bytes per block")
	f.StringVar(&f.pattern, f.def("pattern", toRanks), "nc-nc", "access pattern: c-c, nc-c, c-nc, nc-nc")
	f.BoolVar(&f.collective, f.def("collective", toRanks), false, "use collective access")
	f.StringVar(&f.engine, f.def("engine", toRanks), "listless", "datatype engine: listless or list-based")
	f.IntVar(&f.reps, f.def("reps", toRanks), 0, "write+read repetitions (0 = auto)")
	f.BoolVar(&f.verify, f.def("verify", toRanks), true, "verify read-back data")
	f.Int64Var(&f.tiles, f.def("tiles", toRanks), 1, "filetype instances per access (scales the file size)")
	f.IntVar(&f.sieveBuf, f.def("sievebuf", toRanks), 0, "data-sieving buffer bytes (0 = default)")
	f.IntVar(&f.collBuf, f.def("collbuf", toRanks), 0, "collective buffer bytes (0 = default)")
	f.IntVar(&f.ioNodes, f.def("ionodes", toRanks), 0, "number of I/O processes (0 = all)")
	f.BoolVar(&f.noProgram, f.def("no-program", toRanks), false, "disable compiled datatype copy programs: pack and position through the recursive walk on every window (the ablation baseline)")
	f.StringVar(&f.file, f.def("file", both), "", "back the run with this file instead of memory (with -net launch -servers: per-server stripe files <file>.srvN)")
	f.Int64Var(&f.readBW, f.def("read-bw", toRanks), 0, "throttle: backend read bandwidth in bytes/s")
	f.Int64Var(&f.writeBW, f.def("write-bw", toRanks), 0, "throttle: backend write bandwidth in bytes/s")
	f.DurationVar(&f.latency, f.def("latency", toRanks), 0, "throttle: per-operation backend latency")
	f.Int64Var(&f.chaosSeed, f.refuse("chaos-seed", "per-process injection would desynchronize the ranks"), 0, "inject seeded transient storage faults, ridden out by retries (0 = off)")
	f.StringVar(&f.tracePath, f.def("trace", both), "", "write a Chrome trace-event JSON of the run to this file (load in chrome://tracing or Perfetto)")
	f.BoolVar(&f.traceSumm, f.refuse("trace-summary", "the summary compares the ranks of one process's collector and every launched rank is its own process; use -trace and read the merged file"), false, "print the per-phase imbalance summary of the traced run")
	f.DurationVar(&f.stall, f.def("stall", toRanks), 0, "stall watchdog timeout (0 = default: off in-process, 30s with -net)")

	f.StringVar(&f.netMode, f.def("net", setByLaunch), "", `process model: "" (goroutine ranks), "launch" (fork one OS process per rank over TCP), "rank" (run as one such rank; set by launch), "server" (run as one I/O server; set by launch)`)
	f.IntVar(&f.netRank, f.def("net-rank", setByLaunch), -1, "this process's rank (with -net rank)")
	f.StringVar(&f.netRendezvous, f.def("net-rendezvous", setByLaunch), "", "rank 0's rendezvous address (with -net rank, ranks > 0)")
	f.IntVar(&f.netFD, f.def("net-fd", setByLaunch), 0, "inherited rendezvous listener fd (with -net rank, rank 0)")
	f.DurationVar(&f.netTimeout, f.def("net-timeout", launcherOnly), 5*time.Minute, "kill the whole -net launch run after this long")

	f.IntVar(&f.servers, f.def("servers", toServers), 0, "with -net launch: number of I/O-server processes to stripe the file across")
	f.Int64Var(&f.stripeUnit, f.def("stripe", both), 64<<10, "stripe unit bytes of the I/O-server tier")
	f.StringVar(&f.serverAddrs, f.def("server-addrs", setByLaunch), "", "comma-separated I/O-server addresses to mount as the backend (with -net rank; set by launch)")
	f.IntVar(&f.netIndex, f.def("net-index", setByLaunch), -1, "this server's stripe index (with -net server; set by launch)")
	f.IntVar(&f.serverRestarts, f.def("server-restarts", launcherOnly), 0, "with -net launch -servers: restart a crashed I/O server up to this many times on its inherited listener")
	f.DurationVar(&f.killServer, f.def("kill-server", launcherOnly), 0, "with -net launch -servers: SIGKILL server 0 after this long, to demonstrate supervised recovery (0 = off)")
	f.Int64Var(&f.wireChaosSeed, f.def("wire-chaos-seed", toRanks), 0, "inject seeded wire faults (drops, dups, header corruption, resets, partitions) on this rank's server connections (0 = off)")

	f.BoolVar(&f.traceSplit, f.def("trace-split", launcherOnly), false, "with -net launch -trace: keep the per-process trace files next to the merged one")
	f.StringVar(&f.flight, f.def("flight", both), "", "flight recorder: periodically persist recent spans (and a server's request stats) to this path, dumped on SIGQUIT, collective fault, or watchdog stall and surviving SIGKILL (with -net launch: a directory, one dump per process)")
	return f
}

// refusedUnderLaunch names the first flag on the command line that
// -net launch cannot honour, with the reason; "" when there is none.
func (f *flags) refusedUnderLaunch() string {
	var msg string
	f.Visit(func(fl *flag.Flag) {
		if msg == "" && f.class[fl.Name] == refused {
			msg = fmt.Sprintf("-net launch does not support -%s: %s", fl.Name, f.why[fl.Name])
		}
	})
	return msg
}

// The two kinds of child process; the strings are also the suffixes of
// the per-process trace, flight and stripe files.
const (
	roleRank   = "rank"
	roleServer = "srv"
)

// childValue is what child idx of the given role gets for a forwarded
// flag: the launcher's own value, except for the paths and the seed that
// must differ from process to process.  ok is false where this child
// must not see the flag at all.
func (f *flags) childValue(name, role string, idx int) (v string, ok bool) {
	switch name {
	case "trace":
		return fmt.Sprintf("%s.%s%d", f.tracePath, role, idx), true
	case "flight":
		return filepath.Join(f.flight, fmt.Sprintf("%s%d.flight", role, idx)), true
	case "file":
		// Without a server tier the ranks share one file; with one it
		// names per-server stripe persistence and the ranks mount the
		// servers instead.
		if role == roleServer {
			return fmt.Sprintf("%s.%s%d", f.file, role, idx), true
		}
		return f.file, f.servers == 0
	case "wire-chaos-seed":
		// Distinct per-rank seeds: identical fault schedules on every
		// rank would synchronize the injected faults.
		return fmt.Sprint(f.wireChaosSeed + int64(idx)), true
	}
	return f.Lookup(name).Value.String(), true
}

// childArgs is child idx's argument list: the flags launch sets for it,
// then every flag given on the launcher's command line whose class
// forwards it to that role.  Flags left at their default are not sent —
// the child is this binary and has the same defaults.
func (f *flags) childArgs(role string, idx int, set ...string) []string {
	want := toRanks
	if role == roleServer {
		want = toServers
	}
	args := set
	f.Visit(func(fl *flag.Flag) {
		if f.class[fl.Name]&want == 0 {
			return
		}
		if v, ok := f.childValue(fl.Name, role, idx); ok {
			args = append(args, "-"+fl.Name+"="+v)
		}
	})
	return args
}
