package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
)

func TestRunBasics(t *testing.T) {
	seen := make([]bool, 5)
	_, err := Run(5, func(p *Proc) {
		if p.Size() != 5 {
			t.Errorf("size = %d", p.Size())
		}
		seen[p.Rank()] = true // distinct indices per rank: no race
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, ok := range seen {
		if !ok {
			t.Errorf("rank %d never ran", r)
		}
	}
	if _, err := Run(0, func(*Proc) {}); err == nil {
		t.Fatal("size-0 world must fail")
	}
}

func TestSendRecvOrdering(t *testing.T) {
	_, err := Run(2, func(p *Proc) {
		const n = 100
		if p.Rank() == 0 {
			for i := 0; i < n; i++ {
				p.Send(1, 7, []byte{byte(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				got, src, tag := p.Recv(0, 7)
				if src != 0 || tag != 7 || got[0] != byte(i) {
					t.Errorf("message %d: got %d from %d tag %d", i, got[0], src, tag)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTagSelection(t *testing.T) {
	_, err := Run(2, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, []byte("a"))
			p.Send(1, 2, []byte("b"))
		} else {
			// Receive tag 2 first even though tag 1 arrived first.
			got, _, _ := p.Recv(0, 2)
			if string(got) != "b" {
				t.Errorf("tag 2 payload = %q", got)
			}
			got, _, _ = p.Recv(0, 1)
			if string(got) != "a" {
				t.Errorf("tag 1 payload = %q", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvWildcards(t *testing.T) {
	_, err := Run(4, func(p *Proc) {
		if p.Rank() == 0 {
			got := map[int]bool{}
			for i := 0; i < 3; i++ {
				data, src, tag := p.Recv(AnySource, AnyTag)
				if tag != src*10 || string(data) != fmt.Sprint(src) {
					t.Errorf("bad message from %d: %q tag %d", src, data, tag)
				}
				got[src] = true
			}
			if len(got) != 3 {
				t.Errorf("received from %d distinct sources", len(got))
			}
		} else {
			p.Send(0, p.Rank()*10, []byte(fmt.Sprint(p.Rank())))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	_, err := Run(2, func(p *Proc) {
		if p.Rank() == 0 {
			buf := []byte("hello")
			p.Send(1, 0, buf)
			copy(buf, "XXXXX") // must not affect the receiver
		} else {
			got, _, _ := p.Recv(0, 0)
			if string(got) != "hello" {
				t.Errorf("payload = %q, corrupted by sender reuse", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	// All ranks increment before the barrier; after it everyone must see
	// the full count.  Repeat to exercise generations.
	const P = 8
	counts := make([]int32, 3)
	_, err := Run(P, func(p *Proc) {
		for round := 0; round < 3; round++ {
			// Distinct slot per rank per round avoids atomics: each rank
			// adds to a rank-private cell, then we sum after the barrier.
			p.Barrier()
			if round == 0 && p.Rank() == 0 {
				counts[0] = P
			}
			p.Barrier()
			if counts[0] != P {
				t.Errorf("rank %d round %d: count %d", p.Rank(), round, counts[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	_, err := Run(6, func(p *Proc) {
		var data []byte
		if p.Rank() == 2 {
			data = []byte("payload")
		}
		got := p.Bcast(2, data)
		if string(got) != "payload" {
			t.Errorf("rank %d: bcast = %q", p.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherParts(t *testing.T) {
	_, err := Run(5, func(p *Proc) {
		mine := []byte(strings.Repeat("x", p.Rank()+1))
		all := p.Allgather(mine)
		for r, part := range all {
			if len(part) != r+1 {
				t.Errorf("rank %d: allgather[%d] len = %d", p.Rank(), r, len(part))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherEmptyParts(t *testing.T) {
	_, err := Run(3, func(p *Proc) {
		var mine []byte
		if p.Rank() == 1 {
			mine = []byte("z")
		}
		all := p.Allgather(mine)
		if len(all[0]) != 0 || string(all[1]) != "z" || len(all[2]) != 0 {
			t.Errorf("rank %d: allgather = %q", p.Rank(), all)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoall(t *testing.T) {
	const P = 4
	stats, err := Run(P, func(p *Proc) {
		parts := make([][]byte, P)
		for r := 0; r < P; r++ {
			parts[r] = []byte{byte(p.Rank()), byte(r)}
		}
		got := p.Alltoall(parts)
		for r := 0; r < P; r++ {
			want := []byte{byte(r), byte(p.Rank())}
			if !bytes.Equal(got[r], want) {
				t.Errorf("rank %d: from %d = %v, want %v", p.Rank(), r, got[r], want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every message sent inside the world is received inside it, so the
	// world totals must balance exactly.
	if stats.Messages != stats.Received || stats.Bytes != stats.BytesReceived {
		t.Fatalf("world accounting unbalanced: sent %d msgs/%d B, received %d msgs/%d B",
			stats.Messages, stats.Bytes, stats.Received, stats.BytesReceived)
	}
	if stats.Received == 0 {
		t.Fatal("alltoall received no messages")
	}
}

func TestAllreduceAndAllgatherInt64(t *testing.T) {
	const P = 7
	_, err := Run(P, func(p *Proc) {
		v := int64(p.Rank() + 1)
		if got := p.AllreduceInt64(v, OpSum); got != P*(P+1)/2 {
			t.Errorf("sum = %d", got)
		}
		if got := p.AllreduceInt64(v, OpMax); got != P {
			t.Errorf("max = %d", got)
		}
		if got := p.AllreduceInt64(v, OpMin); got != 1 {
			t.Errorf("min = %d", got)
		}
		vec := p.AllgatherInt64(v)
		for r, x := range vec {
			if x != int64(r+1) {
				t.Errorf("allgather[%d] = %d", r, x)
			}
		}
		vs := p.AllgatherInt64s([]int64{v, -v})
		for r, x := range vs {
			if x[0] != int64(r+1) || x[1] != -int64(r+1) {
				t.Errorf("allgatherInt64s[%d] = %v", r, x)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConsecutiveCollectivesDoNotCrossTalk(t *testing.T) {
	_, err := Run(4, func(p *Proc) {
		for i := 0; i < 50; i++ {
			if got := p.AllreduceInt64(int64(i), OpMax); got != int64(i) {
				t.Errorf("iteration %d: max = %d", i, got)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPanicAbortsWorld(t *testing.T) {
	_, err := Run(3, func(p *Proc) {
		if p.Rank() == 1 {
			panic("deliberate")
		}
		// Others block forever without the abort.
		p.Recv(1, 99)
	})
	if err == nil || !strings.Contains(err.Error(), "deliberate") {
		t.Fatalf("err = %v, want the deliberate panic", err)
	}
}

func TestPanicAbortsBarrier(t *testing.T) {
	_, err := Run(3, func(p *Proc) {
		if p.Rank() == 2 {
			panic("boom")
		}
		p.Barrier()
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestStatsCounting(t *testing.T) {
	stats, err := Run(2, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 0, make([]byte, 100))
			p.SendNoCopy(1, 0, make([]byte, 50))
			s := p.SentStats()
			if s.Messages != 2 || s.Bytes != 150 {
				t.Errorf("proc stats = %+v", s)
			}
		} else {
			p.Recv(0, 0)
			p.Recv(0, 0)
			s := p.SentStats()
			if s.Received != 2 || s.BytesReceived != 150 {
				t.Errorf("receive-side proc stats = %+v", s)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 2 || stats.Bytes != 150 {
		t.Fatalf("world stats = %+v", stats)
	}
	if stats.Received != 2 || stats.BytesReceived != 150 {
		t.Fatalf("world receive stats = %+v", stats)
	}
}

// TestSendRefAccounting: a reference is one message of no payload bytes,
// counted in Refs, received as the sender's value itself in-process; a
// wired world refuses it and fails naming why.  Beside it, payloads that
// are received and drained balance the world, and on both fabrics the
// world's Stats is, field by field, the sum of what its ranks report as
// they exit.
func TestSendRefAccounting(t *testing.T) {
	src := []byte("0123456789abcdef")
	payload := []byte("89abcdef0123")
	const n = 12
	for _, tcp := range []bool{false, true} {
		eps := transport.NewLoopback(2)
		if tcp {
			eps = localTCPWorld(t, 2)
		}
		procs := make([]*Proc, 2)
		stats, err := RunOver(eps, RunOptions{StallTimeout: 10 * time.Second}, func(p *Proc) {
			procs[p.Rank()] = p
			if p.Rank() == 0 {
				for tag := 1; tag <= 2; tag++ {
					p.Send(1, tag, payload)
				}
				if !p.Wired() {
					p.SendRef(1, 5, src)
				}
				p.Send(1, 4, nil)
				return
			}
			if data, _, _ := p.Recv(0, 1); string(data) != "89abcdef0123" {
				t.Errorf("tcp=%v: Recv gave %q", tcp, data)
			}
			if !p.Wired() {
				if ref, ok := p.RecvRef(0, 5).([]byte); !ok || &ref[0] != &src[0] {
					t.Errorf("RecvRef gave %v, want the sender's slice itself", ref)
				}
			}
			p.Recv(0, 4) // per-pair FIFO: tag 2 is queued by now
			if p.DrainTag(2, nil) != 1 {
				t.Errorf("tcp=%v: the queued message was not drained", tcp)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		msgs, refs := int64(4), int64(1)
		if tcp {
			msgs, refs = 3, 0
		}
		if stats.Messages != msgs || stats.Received != msgs || stats.Refs != refs || stats.Bytes != 2*n || stats.BytesReceived != 2*n {
			t.Errorf("tcp=%v: world stats %+v, want %d messages each way, %d of them references, and %d bytes each way", tcp, stats, msgs, refs, 2*n)
		}
		var sum Stats
		for _, p := range procs {
			sum.add(p.SentStats())
		}
		if sum != stats || tcp != (stats.WireBytesSent > 0) || tcp != (stats.WireBytesRecv > 0) {
			t.Errorf("tcp=%v: world stats %+v, the ranks' sum %+v", tcp, stats, sum)
		}
	}
	_, err := RunOver(localTCPWorld(t, 2), RunOptions{StallTimeout: 10 * time.Second}, func(p *Proc) {
		p.Barrier() // every endpoint is dialed: the abort below races no handshake
		if p.Rank() == 0 {
			p.SendRef(1, 5, src)
		}
		p.Barrier()
	})
	if err == nil || !strings.Contains(err.Error(), "cannot cross a wire") {
		t.Errorf("a reference sent on a wired world: err = %v, want the refusal", err)
	}
}

func TestSendInvalidRankPanics(t *testing.T) {
	_, err := Run(1, func(p *Proc) {
		p.Send(5, 0, nil)
	})
	if err == nil {
		t.Fatal("send to invalid rank must abort")
	}
}
