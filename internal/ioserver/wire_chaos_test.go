package ioserver

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Wire-chaos soak: the full collective stack — both engines, epochs on —
// over in-process servers whose client connections suffer seeded frame
// drops, duplicates, header corruption, resets, partitions, and latency
// spikes.  Every fault must surface as a transient (deadline, framing
// error, desync, or seal mismatch), heal through reconnect + stage-log
// replay, and leave the file byte-identical to a fault-free local run.
// WIRE_CHAOS_SOAK extends the default round budget for a longer soak in
// CI's repeat-count canaries.

// soakWireChaos returns the seeded injection profile of the soak.  The
// client Timeout below is short so that a dropped request frame costs
// one deadline expiry, not the default 30s.
func soakWireChaos(seed int64) *transport.WireChaosConfig {
	return &transport.WireChaosConfig{
		Seed:         seed,
		PSpike:       0.02,
		SpikeMin:     50 * time.Microsecond,
		SpikeMax:     500 * time.Microsecond,
		PDrop:        0.01,
		PDup:         0.01,
		PCorrupt:     0.01,
		PReset:       0.005,
		PPartition:   0.002,
		PartitionFor: 30 * time.Millisecond,
	}
}

func TestWireChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fault-injection soak")
	}
	rounds := 20
	if os.Getenv("WIRE_CHAOS_SOAK") != "" {
		rounds = 200
	}
	// The small storm is a 512-byte file, one window per IOP; the
	// windowed one an 8 MiB file of 64-byte blocks, which windows keep
	// buffered, so each IOP's 2 MiB domain is two of core's 1 MiB windows
	// and a fault may land between two windows of one collective.
	small := krStorm{unit: 256, blockcount: 16, blocklen: 8, rounds: rounds}
	windowed := krStorm{unit: 64 << 10, blockcount: 32 << 10, blocklen: 64, rounds: rounds / 4}
	for _, eng := range []core.Engine{core.ListBased, core.Listless} {
		t.Run(eng.String(), func(t *testing.T) { wireChaosRun(t, eng, small) })
	}
	t.Run("listless-2windows", func(t *testing.T) { wireChaosRun(t, core.Listless, windowed) })
}

// wireChaosRun runs the storm, each round a collective write and its
// read-back, over three servers whose client connections suffer the
// soak's faults, and the same storm over a fault-free Mem, and requires
// the same bytes of both.
func wireChaosRun(t *testing.T, eng core.Engine, storm krStorm) {
	const P, nSrv = 4, 3
	d := storm.data()
	run := func(t *testing.T, be storage.Backend) {
		t.Helper()
		sh := core.NewShared(be)
		var windows int64
		_, err := mpi.RunWithOptions(P, mpi.RunOptions{StallTimeout: 120 * time.Second}, func(p *mpi.Proc) {
			f, err := core.Open(p, sh, core.Options{Engine: eng})
			if err != nil {
				panic(err)
			}
			defer f.Close()
			ft, err := interleavedFiletype(p.Rank(), P, storm.blockcount, storm.blocklen)
			if err != nil {
				panic(err)
			}
			if err := f.SetView(0, datatype.Byte, ft); err != nil {
				panic(err)
			}
			for r := 0; r < storm.rounds; r++ {
				data := roundPattern(p.Rank(), r, d)
				if _, err := f.WriteAtAll(0, d, datatype.Byte, data); err != nil {
					panic(fmt.Sprintf("rank %d round %d: %v", p.Rank(), r, err))
				}
				got := make([]byte, d)
				if _, err := f.ReadAtAll(0, d, datatype.Byte, got); err != nil {
					panic(fmt.Sprintf("rank %d round %d read-back: %v", p.Rank(), r, err))
				}
				if !bytes.Equal(got, data) {
					panic(fmt.Sprintf("rank %d round %d: read-back mismatch", p.Rank(), r))
				}
			}
			if p.Rank() == 0 {
				windows = f.Stats.SieveWrites
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if windows != storm.windows() {
			t.Fatalf("rank 0 moved %d buffered write windows in %d rounds, want %d", windows, storm.rounds, storm.windows())
		}
	}

	// Servers over Mem stripes, in-process; chaos lives on the client
	// side of every connection.
	geom := storage.StripeGeom{Unit: storm.unit, Count: nSrv}
	addrs := make([]string, nSrv)
	servers := make([]*Server, nSrv)
	for i := range servers {
		srv, err := New(Config{Backend: storage.NewMem(), Geom: geom, Index: i})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		servers[i] = srv
		go srv.Serve(ln)
	}
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()

	stats := &transport.WireChaosStats{}
	cfg := soakWireChaos(int64(31 + len(addrs)))
	cfg.Stats = stats
	agg, err := NewStriped(storm.unit, addrs, ClientOptions{
		Timeout:   150 * time.Millisecond,
		WireChaos: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	be := storage.NewResilient(agg, storage.ResilientConfig{
		MaxRetries:  30,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
	})

	run(t, be)

	// The same storm against a fault-free local backend is the byte
	// oracle.
	oracle := storage.NewMem()
	run(t, oracle)

	got := make([]byte, be.Size())
	if err := storage.ReadAtv(be, []storage.Segment{{Off: 0, Buf: got}}); err != nil {
		t.Fatal(err)
	}
	if want := memBytes(oracle); !bytes.Equal(got, want) {
		t.Fatalf("chaos run differs from oracle (%d vs %d bytes)", len(got), len(want))
	}
	st := counter.Load(stats)
	t.Logf("wire faults injected: %+v", st)
	if st.Drops+st.Dups+st.Corrupts+st.Resets+st.Partitions == 0 {
		t.Error("soak injected no destructive wire faults; raise rounds or probabilities")
	}
}
