package ioserver

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Kill-and-restart acceptance harness: SIGKILL a server mid collective
// write storm, let supervision restart it on the inherited listener,
// and require every round to still commit; then restart the whole
// server tier over the persisted stripes and journals and byte-verify
// the file against a local oracle that ran the identical storm.  The
// servers are real processes (this test binary re-execed, see
// TestMain), so the kill exercises true crash recovery: flock release,
// journal scan, uncommitted-epoch discard, client reconnect and
// stage-log replay, seal/commit retry.

// TestMain dispatches the re-exec server role of the kill-restart
// harness before the normal test run.
func TestMain(m *testing.M) {
	if os.Getenv("IOSERVER_HELPER_ROLE") == "server" {
		serverHelperMain()
		return
	}
	os.Exit(m.Run())
}

// helperEnvInt reads one integer config knob of the server role.
func helperEnvInt(key string) int {
	n, err := strconv.Atoi(os.Getenv(key))
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper: bad %s: %v\n", key, err)
		os.Exit(1)
	}
	return n
}

// serverHelperMain is one I/O-server process of the harness: recover
// the journal next to the stripe file, serve on the inherited listener,
// seal and exit on SIGINT/SIGTERM.
func serverHelperMain() {
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	unit := int64(helperEnvInt("IOSERVER_HELPER_UNIT"))
	count := helperEnvInt("IOSERVER_HELPER_COUNT")
	index := helperEnvInt("IOSERVER_HELPER_INDEX")
	path := os.Getenv("IOSERVER_HELPER_FILE")

	stripe, err := storage.OpenFile(path)
	if err != nil {
		fatal(err)
	}
	jb, err := storage.OpenFile(path + ".journal")
	if err != nil {
		fatal(err)
	}
	j, info, err := RecoverJournal(jb, stripe)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("server %d up: %s\n", index, info)
	srv, err := New(Config{
		Backend: stripe,
		Geom:    storage.StripeGeom{Unit: unit, Count: count},
		Index:   index,
		Journal: j,
	})
	if err != nil {
		fatal(err)
	}
	ln, err := transport.ListenerFromFD(transport.RendezvousFD)
	if err != nil {
		fatal(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		srv.Close()
	}()
	if err := srv.Serve(ln); err != nil {
		fatal(err)
	}
	os.Exit(0)
}

func TestKillRestartCrashConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills server processes")
	}
	for _, nSrv := range []int{1, 3} {
		for _, eng := range []core.Engine{core.ListBased, core.Listless} {
			t.Run(fmt.Sprintf("%dsrv-%s", nSrv, eng), func(t *testing.T) {
				killRestartRun(t, nSrv, eng, krSmall)
			})
		}
	}
	t.Run("3srv-listless-2windows", func(t *testing.T) {
		killRestartRun(t, 3, core.Listless, krWindows)
	})
}

const krRanks = 4

// krStorm is one storm of the harness: the stripe unit, each rank's
// view — blockcount blocks of blocklen bytes, interleaved over the
// ranks — the rounds, and the rounds after which a server is killed.
// Every kill lands between a commit's acknowledgement and the next
// checkpoint, so the restart replays each round the victim committed
// since its last start; the kill after the last round is the one whose
// replay the final bytes depend on, every earlier round being
// overwritten.
type krStorm struct {
	unit, blockcount, blocklen int64
	rounds                     int
	kills                      map[int]bool
}

// data is each rank's bytes per round.
func (s krStorm) data() int64 { return s.blockcount * s.blocklen }

// windows is the collective write windows a rank moves in the storm:
// its IOP domain is its share of the file, moved each round in buffered
// windows of core's 1 MiB, which count as sieve writes.
func (s krStorm) windows() int64 { return int64(s.rounds) * ((s.data() + 1<<20 - 1) >> 20) }

var (
	// krSmall is a 512-byte file: each IOP moves its domain in one
	// window.
	krSmall = krStorm{unit: 256, blockcount: 16, blocklen: 8, rounds: 24, kills: map[int]bool{8: true, 16: true, 23: true}}
	// krWindows is an 8 MiB file of 64-byte blocks, which windows keep
	// buffered: each IOP's 2 MiB domain is two of core's 1 MiB windows,
	// so a kill may find the next collective between two of them.
	krWindows = krStorm{unit: 64 << 10, blockcount: 32 << 10, blocklen: 64, rounds: 4, kills: map[int]bool{1: true, 2: true, 3: true}}
)

// roundPattern is rank r's payload for storm round n — every (rank,
// round) pair distinct, so a stale committed epoch cannot masquerade as
// the final one.
func roundPattern(rank, round int, n int64) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(rank*31 + round*7 + i + 1)
	}
	return p
}

// interleavedFiletype is rank p's view: blockcount blocks of blocklen
// bytes at stride P*blocklen, displaced by p*blocklen; the union over
// ranks covers the file contiguously.
func interleavedFiletype(p, P int, blockcount, blocklen int64) (*datatype.Type, error) {
	vec, err := datatype.Hvector(blockcount, blocklen, int64(P)*blocklen, datatype.Byte)
	if err != nil {
		return nil, err
	}
	return datatype.Struct(
		[]int64{1, 1, 1},
		[]int64{0, int64(p) * blocklen, blockcount * int64(P) * blocklen},
		[]*datatype.Type{datatype.LBMarker, vec, datatype.UBMarker},
	)
}

// runStorm drives the storm's collective writes of the interleaved
// noncontiguous pattern over be from an in-process world.  roundCh, if
// non-nil, receives each completed round number (from rank 0's view).
func runStorm(t *testing.T, eng core.Engine, storm krStorm, be storage.Backend, roundCh chan<- int) {
	t.Helper()
	sh := core.NewShared(be)
	var committed, windows int64
	_, err := mpi.RunWithOptions(krRanks, mpi.RunOptions{StallTimeout: 60 * time.Second}, func(p *mpi.Proc) {
		f, err := core.Open(p, sh, core.Options{Engine: eng})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		ft, err := interleavedFiletype(p.Rank(), krRanks, storm.blockcount, storm.blocklen)
		if err != nil {
			panic(err)
		}
		if err := f.SetView(0, datatype.Byte, ft); err != nil {
			panic(err)
		}
		for r := 0; r < storm.rounds; r++ {
			if _, err := f.WriteAtAll(0, storm.data(), datatype.Byte, roundPattern(p.Rank(), r, storm.data())); err != nil {
				panic(fmt.Sprintf("rank %d round %d: %v", p.Rank(), r, err))
			}
			if p.Rank() == 0 && roundCh != nil {
				roundCh <- r
			}
		}
		if p.Rank() == 0 {
			committed, windows = f.Stats.EpochsCommitted, f.Stats.SieveWrites
		}
	})
	if roundCh != nil {
		close(roundCh)
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := storage.AsEpochBackend(be); ok && committed != int64(storm.rounds) {
		t.Fatalf("epoch protocol inactive: %d epochs committed, want %d", committed, storm.rounds)
	}
	if want := storm.windows(); windows != want {
		t.Fatalf("rank 0 moved %d buffered windows in %d rounds, want %d", windows, storm.rounds, want)
	}
}

// startHelperPool binds nothing itself — the listeners are the caller's
// — and supervises one re-execed server helper per listener, calling
// onRestart (when set) before each restart.  The test's cleanup kills
// whatever helper a failed test left running.
func startHelperPool(t *testing.T, dir string, unit int64, nSrv int, lfs []*os.File, onRestart func(idx, attempt int)) *transport.ServerPool {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	pool, err := transport.StartServerPool(transport.ServerPoolOptions{
		Listeners:   lfs,
		MaxRestarts: 5,
		OnRestart:   onRestart,
		StartProc: func(idx int, listener *os.File) (*exec.Cmd, error) {
			cmd := exec.Command(exe)
			cmd.Env = append(os.Environ(),
				"IOSERVER_HELPER_ROLE=server",
				fmt.Sprintf("IOSERVER_HELPER_UNIT=%d", unit),
				fmt.Sprintf("IOSERVER_HELPER_COUNT=%d", nSrv),
				fmt.Sprintf("IOSERVER_HELPER_INDEX=%d", idx),
				"IOSERVER_HELPER_FILE="+filepath.Join(dir, fmt.Sprintf("stripe%d", idx)),
			)
			cmd.ExtraFiles = []*os.File{listener}
			cmd.Stderr = os.Stderr
			return cmd, cmd.Start()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		pool.Stop(false)
		pool.Wait()
	})
	return pool
}

// mountResilient mounts the servers with a retry budget generous enough
// to ride out a restart (pool backoff 50ms, doubling, vs ~2s of total
// retry window here).
func mountResilient(t *testing.T, unit int64, addrs []string) (*Striped, storage.Backend) {
	t.Helper()
	agg, err := NewStriped(unit, addrs, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := storage.NewResilient(agg, storage.ResilientConfig{
		MaxRetries:  20,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  200 * time.Millisecond,
	})
	return agg, res
}

func flattenRemote(t *testing.T, b storage.Backend, n int64) []byte {
	t.Helper()
	buf := make([]byte, n)
	if len(buf) == 0 {
		return buf
	}
	if err := storage.ReadAtv(b, []storage.Segment{{Off: 0, Buf: buf}}); err != nil {
		t.Fatal(err)
	}
	return buf
}

func killRestartRun(t *testing.T, nSrv int, eng core.Engine, storm krStorm) {
	dir := t.TempDir()
	addrs := make([]string, nSrv)
	lfs := make([]*os.File, nSrv)
	for i := range lfs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		f, err := ln.(*net.TCPListener).File()
		ln.Close()
		if err != nil {
			t.Fatal(err)
		}
		lfs[i] = f
		defer f.Close()
	}

	// The storm against the supervised server tier, with kills injected
	// at fixed round boundaries (round-robin across servers).
	var restarted atomic.Int64
	pool := startHelperPool(t, dir, storm.unit, nSrv, lfs, func(int, int) { restarted.Add(1) })
	agg, be := mountResilient(t, storm.unit, addrs)
	// Unbuffered: rank 0 blocks until the killer consumed the round
	// marker, so a kill lands before the next round's staging — genuinely
	// mid-storm, never after it.
	roundCh := make(chan int)
	kills := 0
	killerDone := make(chan struct{})
	go func() {
		defer close(killerDone)
		for r := range roundCh {
			if storm.kills[r] {
				if err := pool.Kill(kills % nSrv); err != nil {
					t.Errorf("kill after round %d: %v", r, err)
				}
				kills++
			}
		}
	}()
	runStorm(t, eng, storm, be, roundCh)
	<-killerDone

	// The identical storm against a local Mem backend is the oracle.
	oracle := storage.NewMem()
	runStorm(t, eng, storm, oracle, nil)
	want := oracle.Bytes()
	verify := func(when string, got []byte) {
		t.Helper()
		if bytes.Equal(got, want) {
			return
		}
		t.Errorf("%s the tier differs from the oracle: got %d bytes, want %d", when, len(got), len(want))
		for i := range want {
			if i < len(got) && got[i] != want[i] {
				t.Fatalf("first difference at offset %d: got %#x want %#x", i, got[i], want[i])
			}
		}
		t.FailNow()
	}

	// The last kill's victim is back once this read succeeds (Size would
	// answer from the client's memory while it is away), its journal
	// replayed over the stripe the kill left in the page cache.
	verify("after the last kill", flattenRemote(t, be, int64(len(want))))
	if err := agg.Close(); err != nil {
		t.Errorf("closing clients: %v", err)
	}
	pool.Stop(true)
	pool.Wait()
	select {
	case err := <-pool.Failures():
		t.Fatalf("server pool failed: %v", err)
	default:
	}
	if n := restarted.Load(); n < int64(kills) {
		t.Fatalf("killed %d servers but supervision restarted only %d", kills, n)
	}

	// Restart the world over the persisted stripes and journals and
	// byte-verify every committed epoch survived both the kills and the
	// final shutdown.
	pool2 := startHelperPool(t, dir, storm.unit, nSrv, lfs, nil)
	agg2, be2 := mountResilient(t, storm.unit, addrs)
	verify("restarted,", flattenRemote(t, be2, be2.Size()))
	if err := agg2.Close(); err != nil {
		t.Errorf("closing verification clients: %v", err)
	}
	pool2.Stop(true)
	pool2.Wait()
	select {
	case err := <-pool2.Failures():
		t.Fatalf("verification pool failed: %v", err)
	default:
	}
}
