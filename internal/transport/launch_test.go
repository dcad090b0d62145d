package transport

import (
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// launchChildEnv, set, makes this test binary one of the children the
// Launch tests start: a rank that sleeps for its argument, or a server
// that runs until it is interrupted.
const launchChildEnv = "TRANSPORT_LAUNCH_CHILD"

// TestMain dispatches the re-exec child roles before the normal test run.
func TestMain(m *testing.M) {
	if os.Getenv(launchChildEnv) != "" {
		launchChildMain(os.Args[1:])
		return
	}
	os.Exit(m.Run())
}

func launchChildMain(args []string) {
	switch args[0] {
	case "rank":
		d, err := time.ParseDuration(args[1])
		if err != nil {
			os.Exit(2)
		}
		time.Sleep(d)
	case "server":
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
	}
}

// launchKill launches one rank that runs for rankRuns beside one server,
// which is killed killAfter after launch and may restart once, and
// returns Launch's error and the restarts it made.
func launchKill(t *testing.T, rankRuns, killAfter time.Duration) (error, int64) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(launchChildEnv, "1")
	var restarts atomic.Int64
	err = Launch(LaunchOptions{
		Size:            1,
		Exe:             exe,
		Args:            func(int, string, []string) []string { return []string{"rank", rankRuns.String()} },
		Servers:         1,
		ServerArgs:      func(int) []string { return []string{"server"} },
		ServerRestarts:  1,
		KillServerAfter: killAfter,
		Timeout:         time.Minute,
		OnServerRestart: func(int, int) { restarts.Add(1) },
	})
	return err, restarts.Load()
}

// TestLaunchKillsServerMidRun: a kill requested while a rank runs lands,
// and supervision restarts the server once.
func TestLaunchKillsServerMidRun(t *testing.T) {
	if err, restarts := launchKill(t, time.Second, 100*time.Millisecond); err != nil || restarts != 1 {
		t.Fatalf("Launch: %v after %d restarts, want none after 1", err, restarts)
	}
}

// TestLaunchReportsKillThatDidNotFire: a kill still pending when the last
// rank exits is disarmed — it would land in the graceful stop, which
// restarts nothing — and the run fails naming it.
func TestLaunchReportsKillThatDidNotFire(t *testing.T) {
	start := time.Now()
	err, restarts := launchKill(t, 0, time.Hour)
	if err == nil || !strings.Contains(err.Error(), "did not fire") || restarts != 0 {
		t.Fatalf("Launch: %v after %d restarts, want the unfired kill named and none", err, restarts)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("Launch took %v: it waited for the kill", d)
	}
}
