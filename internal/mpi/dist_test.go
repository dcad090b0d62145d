package mpi

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/transport/transporttest"
)

func localTCPWorld(t *testing.T, n int) []transport.Transport {
	t.Helper()
	eps, err := transport.NewLocalTCPWorld(n, transport.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return eps
}

// TestRunOverTCPCollectives runs the full collective vocabulary over
// real sockets and checks the results and the accounting balance.
func TestRunOverTCPCollectives(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	const n = 4
	stats, err := RunOver(localTCPWorld(t, n), RunOptions{StallTimeout: 10 * time.Second}, func(p *Proc) {
		r := p.Rank()

		got := p.Bcast(0, []byte("broadcast payload"))
		if string(got) != "broadcast payload" {
			panic(fmt.Sprintf("rank %d: Bcast got %q", r, got))
		}

		parts := p.Allgather([]byte(fmt.Sprintf("rank-%d", r)))
		for i, part := range parts {
			if string(part) != fmt.Sprintf("rank-%d", i) {
				panic(fmt.Sprintf("rank %d: Allgather[%d] = %q", r, i, part))
			}
		}

		out := make([][]byte, n)
		for i := range out {
			out[i] = []byte{byte(r), byte(i)}
		}
		recv := p.Alltoall(out)
		for i, part := range recv {
			if part[0] != byte(i) || part[1] != byte(r) {
				panic(fmt.Sprintf("rank %d: Alltoall[%d] = %v", r, i, part))
			}
		}

		if sum := p.AllreduceInt64(int64(r+1), OpSum); sum != n*(n+1)/2 {
			panic(fmt.Sprintf("rank %d: sum = %d", r, sum))
		}

		p.Barrier()

		// Point-to-point ring with per-pair FIFO.
		next, prev := (r+1)%n, (r+n-1)%n
		for i := 0; i < 10; i++ {
			p.Send(next, 7, []byte{byte(i)})
		}
		for i := 0; i < 10; i++ {
			data, src, _ := p.Recv(prev, 7)
			if src != prev || data[0] != byte(i) {
				panic(fmt.Sprintf("rank %d: ring got %v from %d at step %d", r, data, src, i))
			}
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != stats.Received || stats.Bytes != stats.BytesReceived {
		t.Fatalf("unbalanced world: %+v", stats)
	}
	if stats.WireBytesSent == 0 || stats.WireBytesSent != stats.WireBytesRecv {
		t.Fatalf("wire bytes sent/recv = %d/%d", stats.WireBytesSent, stats.WireBytesRecv)
	}
}

// TestBackToBackCollectivesDelayedLink runs rounds of two Alltoalls, an
// Allgather, an AllreduceInt64 and a Barrier with no barrier between the
// collectives, while every frame rank 1 sends to rank P-1 lags
// (transporttest.Delay).  The other ranks finish the first Alltoall
// before P-1 has rank 1's part and queue their second one's parts at P-1,
// so a receive that matched any source would take one rank's two parts
// for two ranks'.
func TestBackToBackCollectivesDelayedLink(t *testing.T) {
	const rounds = 4
	fabrics := map[string]func(t *testing.T, n int) []transport.Transport{
		"loopback": func(_ *testing.T, n int) []transport.Transport { return transport.NewLoopback(n) },
		"tcp":      localTCPWorld,
	}
	for _, fabric := range []string{"loopback", "tcp"} {
		for _, n := range []int{3, 4} {
			t.Run(fmt.Sprintf("%s/P=%d", fabric, n), func(t *testing.T) {
				t.Cleanup(testutil.LeakCheck(t))
				eps := fabrics[fabric](t, n)
				delayed := transporttest.Delay(eps[1], n-1, 5*time.Millisecond)
				defer delayed.Close() // an in-process world leaves its endpoints open
				eps[1] = delayed
				_, err := RunOver(eps, RunOptions{StallTimeout: 10 * time.Second}, func(p *Proc) {
					r := p.Rank()
					for k := 0; k < rounds; k++ {
						for a := 0; a < 2; a++ {
							out := make([][]byte, n)
							for i := range out {
								out[i] = []byte{byte(r), byte(i), byte(2*k + a)}
							}
							for i, part := range p.Alltoall(out) {
								if part[0] != byte(i) || part[1] != byte(r) || part[2] != byte(2*k+a) {
									panic(fmt.Sprintf("rank %d round %d: Alltoall %d [%d] = %v", r, k, a, i, part))
								}
							}
						}
						for i, part := range p.Allgather([]byte{byte(r), byte(k)}) {
							if part[0] != byte(i) || part[1] != byte(k) {
								panic(fmt.Sprintf("rank %d round %d: Allgather[%d] = %v", r, k, i, part))
							}
						}
						if got, want := p.AllreduceInt64(int64(r*rounds+k), OpMax), int64((n-1)*rounds+k); got != want {
							panic(fmt.Sprintf("rank %d round %d: max = %d, want %d", r, k, got, want))
						}
						p.Barrier()
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestRunOverLoopback confirms the seam runs the plain in-process world
// too (RunOver ∘ NewLoopback == Run).
func TestRunOverLoopback(t *testing.T) {
	stats, err := RunOver(transport.NewLoopback(3), RunOptions{}, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, []byte("abc"))
		}
		if p.Rank() == 1 {
			p.Recv(0, 1)
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 1 || stats.WireBytesSent != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestRunOverTCPStall: the watchdog must catch a deadlock over the wire
// with the same diagnostic text as in-process.
func TestRunOverTCPStall(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	_, err := RunOver(localTCPWorld(t, 2), RunOptions{StallTimeout: 300 * time.Millisecond}, func(p *Proc) {
		if p.Rank() == 0 {
			p.Recv(1, 5) // never sent
		}
	})
	if err == nil {
		t.Fatal("expected ErrStalled")
	}
	for _, want := range []string{"mpi: world stalled", "rank 0 blocked in Recv(src=1, tag=5)", "rank 1 exited"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("diagnostic %q missing %q", err, want)
		}
	}
}

// TestRunRankInProcess drives the one-rank-per-process entry point with
// each "process" as a goroutine: the rendezvous handshake, collectives,
// and the finalize protocol all run exactly as they would across real
// process boundaries.
func TestRunRankInProcess(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	const n = 4
	eps := localTCPWorld(t, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	statss := make([]Stats, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			statss[r], errs[r] = RunRank(eps[r], RunOptions{StallTimeout: 10 * time.Second}, func(p *Proc) {
				if p.Size() != n || p.Rank() != r {
					panic("bad world shape")
				}
				vals := p.AllgatherInt64(int64(r * r))
				for i, v := range vals {
					if v != int64(i*i) {
						panic(fmt.Sprintf("AllgatherInt64[%d] = %d", i, v))
					}
				}
				p.Barrier()
				if r == 0 {
					for i := 1; i < n; i++ {
						p.Send(i, 3, []byte("final payload"))
					}
				} else {
					data, _, _ := p.Recv(0, 3)
					if string(data) != "final payload" {
						panic("bad payload")
					}
				}
				// No closing barrier: the finalize protocol must keep rank
				// 0's in-flight sends safe while ranks exit at skew.
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 1; r < n; r++ {
		if statss[r].WireBytesRecv == 0 {
			t.Fatalf("rank %d reports no wire bytes", r)
		}
	}
}

// TestFinalizeStallIsWatched: a rank that has returned waits in the
// finalize barrier in the stall watchdog's sight.  Two RunRank ranks over
// local TCP; rank 1 stays in its own code until rank 0 has returned, so
// rank 0's finalize barrier has no partner, and its watchdog must end the
// wait with ErrStalled within a few timeouts.
func TestFinalizeStallIsWatched(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	const timeout = 200 * time.Millisecond
	eps := localTCPWorld(t, 2)
	release := make(chan struct{})
	done := make(chan error, 2)
	go func() {
		_, err := RunRank(eps[1], RunOptions{StallTimeout: timeout}, func(p *Proc) {
			p.Barrier() // both ranks are dialed and running
			<-release
		})
		done <- err
	}()
	rank0 := make(chan error, 1)
	go func() {
		_, err := RunRank(eps[0], RunOptions{StallTimeout: timeout}, func(p *Proc) { p.Barrier() })
		rank0 <- err
	}()
	var err error
	select {
	case err = <-rank0:
		close(release)
	case <-time.After(20 * timeout):
		close(release) // the finalize barrier completes
		err = <-rank0
		<-done
		t.Fatalf("rank 0 was still in its finalize barrier after %v (then returned %v); want ErrStalled", 20*timeout, err)
	}
	<-done // rank 1 fails on the closed link; it must not hang
	if !errors.Is(err, ErrStalled) || !strings.Contains(err.Error(), "rank 0 blocked in Barrier") {
		t.Fatalf("rank 0: err = %v; want ErrStalled naming the barrier", err)
	}
}
