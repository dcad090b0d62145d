package ioserver

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/datatype"
	"repro/internal/fotf"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// startServers launches n in-process servers over Mem stripes of one
// geometry and returns the aggregate client plus the servers.  Cleanup
// closes everything and checks for goroutine leaks.
func startServers(t *testing.T, unit int64, n int, tweak func(*Config)) (*Striped, []*Server) {
	t.Helper()
	check := testutil.LeakCheck(t)
	geom := storage.StripeGeom{Unit: unit, Count: n}
	servers := make([]*Server, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		cfg := Config{Backend: storage.NewMem(), Geom: geom, Index: i}
		if tweak != nil {
			tweak(&cfg)
		}
		srv, err := New(cfg)
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
	agg, err := NewStriped(unit, addrs, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		agg.Close()
		for _, srv := range servers {
			srv.Close()
		}
		check()
	})
	return agg, servers
}

// TestRemoteBackendOracle drives the remote aggregate and a flat Mem
// with the same random operation stream and requires identical results.
func TestRemoteBackendOracle(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("servers=%d", n), func(t *testing.T) {
			agg, _ := startServers(t, 16, n, nil)
			ref := storage.NewMem()
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 200; i++ {
				off := rng.Int63n(2000)
				ln := rng.Int63n(300)
				buf := make([]byte, ln)
				switch rng.Intn(4) {
				case 0:
					rng.Read(buf)
					if _, err := agg.WriteAt(buf, off); err != nil {
						t.Fatal(err)
					}
					if _, err := ref.WriteAt(buf, off); err != nil {
						t.Fatal(err)
					}
				case 1:
					got, want := make([]byte, ln), make([]byte, ln)
					gn, gerr := agg.ReadAt(got, off)
					wn, werr := ref.ReadAt(want, off)
					if gn != wn || (gerr == nil) != (werr == nil) {
						t.Fatalf("op %d: ReadAt(%d, %d) = (%d, %v), want (%d, %v)", i, off, ln, gn, gerr, wn, werr)
					}
					if !bytes.Equal(got[:gn], want[:wn]) {
						t.Fatalf("op %d: ReadAt(%d, %d) data mismatch", i, off, ln)
					}
				case 2:
					// Vectored write+read of a few scattered pieces.
					var wsegs, rsegs, refw, refr []storage.Segment
					var rgot, rwant []byte
					for j := 0; j < 1+rng.Intn(5); j++ {
						o := rng.Int63n(2000)
						l := rng.Int63n(60)
						b := make([]byte, l)
						rng.Read(b)
						wsegs = append(wsegs, storage.Segment{Off: o, Buf: b})
						refw = append(refw, storage.Segment{Off: o, Buf: b})
						g, w := make([]byte, l), make([]byte, l)
						rsegs = append(rsegs, storage.Segment{Off: o, Buf: g})
						refr = append(refr, storage.Segment{Off: o, Buf: w})
						rgot, rwant = append(rgot, g...), append(rwant, w...)
					}
					if err := agg.WriteAtv(wsegs); err != nil {
						t.Fatal(err)
					}
					if err := ref.WriteAtv(refw); err != nil {
						t.Fatal(err)
					}
					if err := agg.ReadAtv(rsegs); err != nil {
						t.Fatal(err)
					}
					if err := ref.ReadAtv(refr); err != nil {
						t.Fatal(err)
					}
					for j := range rsegs {
						if !bytes.Equal(rsegs[j].Buf, refr[j].Buf) {
							t.Fatalf("op %d: vectored read piece %d mismatch", i, j)
						}
					}
				case 3:
					if agg.Size() != ref.Size() {
						t.Fatalf("op %d: size %d, want %d", i, agg.Size(), ref.Size())
					}
				}
			}
			if err := agg.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := agg.Truncate(100); err != nil {
				t.Fatal(err)
			}
			if err := ref.Truncate(100); err != nil {
				t.Fatal(err)
			}
			if agg.Size() != ref.Size() {
				t.Fatalf("post-truncate size %d, want %d", agg.Size(), ref.Size())
			}
		})
	}
}

// viewType builds the nc test pattern: pick bytes of every vector
// block.
func viewType(t *testing.T, blocklen, stride, count int64) *datatype.Type {
	t.Helper()
	v, err := datatype.Vector(count, blocklen, stride, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestViewRoundTrip writes and reads through registered views on 3
// servers and checks every byte against a flat oracle built with fotf.
func TestViewRoundTrip(t *testing.T) {
	agg, servers := startServers(t, 8, 3, nil)
	ft := viewType(t, 3, 7, 5) // 15 data bytes per 35-byte instance
	const disp = 5

	h, err := agg.RegisterView(disp, ft)
	if err != nil {
		t.Fatal(err)
	}

	// Write data range [d0, d1) with a recognizable pattern.
	const d0, d1 = 4, 160
	data := make([]byte, d1-d0)
	for i := range data {
		data[i] = byte(i*13 + 1)
	}
	if err := agg.ViewWrite(h, data, d0); err != nil {
		t.Fatal(err)
	}

	// Oracle: unpack the same data into a flat file image via fotf.
	flat := make([]byte, 1024)
	fotf.Runs(ft, d0, d1, func(bufOff, dataOff, runLen, stride, n int64) {
		for i := int64(0); i < n; i++ {
			copy(flat[disp+bufOff+i*stride:], data[dataOff+i*runLen-d0:dataOff+(i+1)*runLen-d0])
		}
	})
	got := make([]byte, len(flat))
	if _, err := agg.ReadAt(got[:agg.Size()], 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, flat) {
		t.Fatal("flat image after view write differs from fotf oracle")
	}

	// Read back through the view.
	back := make([]byte, d1-d0)
	if err := agg.ViewRead(h, back, d0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("view read-back differs from written data")
	}

	// A sub-range, not aligned to the write.
	sub := make([]byte, 31)
	if err := agg.ViewRead(h, sub, d0+9); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sub, data[9:9+31]) {
		t.Fatal("view sub-range read differs")
	}

	st, err := agg.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ViewRegistrations == 0 || st.ViewReads == 0 || st.ViewWrites == 0 {
		t.Fatalf("missing view activity in server stats: %+v", st)
	}
	_ = servers
}

// TestViewCacheHitAndStale exercises the per-connection LRU: a capacity
// of one makes alternating views evict each other, so the client must
// transparently re-register; registering an identical view again is a
// cache hit.
func TestViewCacheHitAndStale(t *testing.T) {
	agg, servers := startServers(t, 8, 1, func(cfg *Config) { cfg.viewCache = 1 })
	ftA := viewType(t, 2, 6, 4)
	ftB := viewType(t, 3, 5, 4)

	hA, err := agg.RegisterView(0, ftA)
	if err != nil {
		t.Fatal(err)
	}
	hB, err := agg.RegisterView(0, ftB) // evicts A server-side
	if err != nil {
		t.Fatal(err)
	}

	data := make([]byte, 16)
	for i := range data {
		data[i] = byte(i + 1)
	}
	// A's handle is stale now; the client re-registers under the hood
	// (evicting B in turn).
	if err := agg.ViewWrite(hA, data, 0); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, 16)
	if err := agg.ViewRead(hA, back, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("read-back through re-registered view differs")
	}
	// B is stale now; a read through it must also self-repair (the
	// bytes it sees are whatever A's write left, only the mechanics are
	// under test).
	if err := agg.ViewRead(hB, make([]byte, 12), 0); err != nil {
		t.Fatal(err)
	}

	st := servers[0].Stats()
	if st.StaleHandles == 0 {
		t.Fatalf("expected stale-handle repairs, got stats %+v", st)
	}

	// Re-registering the same encoding on the same connection — what a
	// rank does when it sets the same fileview again — is a cache hit:
	// ftB is resident after its stale repair, and a fresh RegisterView
	// builds a new encoding of the identical tree.
	if _, err := agg.RegisterView(0, ftB); err != nil {
		t.Fatal(err)
	}
	if st := servers[0].Stats(); st.ViewCacheHits == 0 {
		t.Fatalf("expected a view-cache hit, got stats %+v", st)
	}
}

// flaky fails every operation with a transient error until armed
// count runs out, then behaves like its inner Mem.
type flaky struct {
	*storage.Mem
	mu   sync.Mutex
	fail int
}

func (f *flaky) trip() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail > 0 {
		f.fail--
		return fmt.Errorf("flaky: injected: %w", storage.ErrTransient)
	}
	return nil
}

func (f *flaky) ReadAt(p []byte, off int64) (int, error) {
	if err := f.trip(); err != nil {
		return 0, err
	}
	return f.Mem.ReadAt(p, off)
}

func (f *flaky) WriteAt(p []byte, off int64) (int, error) {
	if err := f.trip(); err != nil {
		return 0, err
	}
	return f.Mem.WriteAt(p, off)
}

func (f *flaky) WriteAtv(segs []storage.Segment) error {
	if err := f.trip(); err != nil {
		return err
	}
	return f.Mem.WriteAtv(segs)
}

// permBackend fails every write permanently.
type permBackend struct{ *storage.Mem }

func (p *permBackend) WriteAt(b []byte, off int64) (int, error) {
	return 0, p.WriteAtv(nil)
}

func (p *permBackend) WriteAtv([]storage.Segment) error {
	return fmt.Errorf("perm: media gone: %w", storage.ErrPermanent)
}

// TestErrorTaxonomyAcrossWire checks that the storage sentinels survive
// the protocol: a server-side transient is transient client-side (and a
// client-side Resilient rides it out), a permanent is permanent, and
// errors.Is answers identically on both sides.
func TestErrorTaxonomyAcrossWire(t *testing.T) {
	fl := &flaky{Mem: storage.NewMem(), fail: 1}
	agg, _ := startServers(t, 8, 1, func(cfg *Config) { cfg.Backend = fl })

	// Bare client: the first write surfaces the transient as-is.
	_, err := agg.WriteAt([]byte("abc"), 0)
	if err == nil {
		t.Fatal("expected injected transient")
	}
	if !errors.Is(err, storage.ErrTransient) || !storage.IsTransient(err) {
		t.Fatalf("transient did not survive the wire: %v", err)
	}

	// Resilient over the remote aggregate: the retry rides it out.
	fl.mu.Lock()
	fl.fail = 2
	fl.mu.Unlock()
	res := storage.NewResilient(agg, storage.ResilientConfig{})
	if _, err := res.WriteAt([]byte("abc"), 0); err != nil {
		t.Fatalf("resilient did not ride out remote transients: %v", err)
	}
	got := make([]byte, 3)
	if err := storage.ReadFull(res, got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("read back %q", got)
	}

	// Permanent failures stay permanent (and are not retried).
	aggP, _ := startServers(t, 8, 1, func(cfg *Config) { cfg.Backend = &permBackend{storage.NewMem()} })
	resP := storage.NewResilient(aggP, storage.ResilientConfig{})
	_, err = resP.WriteAt([]byte("abc"), 0)
	if err == nil {
		t.Fatal("expected permanent error")
	}
	if !errors.Is(err, storage.ErrPermanent) || storage.IsTransient(err) {
		t.Fatalf("permanent did not survive the wire: %v", err)
	}
}

// TestClientReconnect kills the connection under the client and checks
// that the failed operation is transient and the next one heals,
// including re-registration of views.
func TestClientReconnect(t *testing.T) {
	agg, _ := startServers(t, 8, 1, nil)
	h, err := agg.RegisterView(0, viewType(t, 2, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := agg.ViewWrite(h, data, 0); err != nil {
		t.Fatal(err)
	}

	// Sever the connection from the client side; the next op redials.
	agg.Clients()[0].Close()
	back := make([]byte, len(data))
	if err := agg.ViewRead(h, back, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("read-back after reconnect differs")
	}
}

// TestClientSizeFaultDeferred closes the server under a client: Size,
// which cannot return an error, answers the last size it observed, and
// the client's next read reports the failure, naming Size, once.
func TestClientSizeFaultDeferred(t *testing.T) {
	agg, servers := startServers(t, 8, 1, nil)
	c := agg.Clients()[0]
	if _, err := c.WriteAt(make([]byte, 24), 0); err != nil {
		t.Fatal(err)
	}
	if n := c.Size(); n != 24 {
		t.Fatalf("size %d, want 24", n)
	}
	servers[0].Close()
	if n := c.Size(); n != 24 {
		t.Fatalf("size against a closed server %d, want the last observed 24", n)
	}
	_, err := c.ReadAt(make([]byte, 8), 0)
	if err == nil || !strings.Contains(err.Error(), "Size") {
		t.Fatalf("read after a failed Size: %v, want an error naming Size", err)
	}
	if _, err := c.ReadAt(make([]byte, 8), 0); err == nil || strings.Contains(err.Error(), "Size") {
		t.Fatalf("second read: %v, want the read's own failure", err)
	}
}

// TestListChunking checks that a long offset list costs
// ceil(n/MaxListRuns) round-trips while the same access through a view
// costs a constant number.
func TestListChunking(t *testing.T) {
	agg, _ := startServers(t, 1<<20, 1, nil) // one stripe: all runs on one server
	const runs = 3 * MaxListRuns
	segs := make([]storage.Segment, runs)
	for i := range segs {
		segs[i] = storage.Segment{Off: int64(i * 8), Buf: []byte{byte(i), byte(i >> 8)}}
	}
	before := agg.Rounds()
	if err := agg.WriteAtv(segs); err != nil {
		t.Fatal(err)
	}
	listRounds := agg.Rounds() - before
	if want := int64(3); listRounds != want {
		t.Fatalf("offset-list write cost %d round-trips, want %d", listRounds, want)
	}

	ft := viewType(t, 2, 8, runs)
	h, err := agg.RegisterView(0, ft)
	if err != nil {
		t.Fatal(err)
	}
	before = agg.Rounds()
	data := make([]byte, 2*runs)
	if err := agg.ViewRead(h, data, 0); err != nil {
		t.Fatal(err)
	}
	if viewRounds := agg.Rounds() - before; viewRounds != 1 {
		t.Fatalf("view read cost %d round-trips, want 1", viewRounds)
	}
	for i := 0; i < runs; i++ {
		if data[2*i] != byte(i) || data[2*i+1] != byte(i>>8) {
			t.Fatalf("run %d read back %v", i, data[2*i:2*i+2])
		}
	}
}

// TestMultiMountEpochCommit is the OS-process-rank configuration: every
// rank mounts the tier itself, so one epoch is staged over several
// connections to each server.  The server stages per epoch id and
// tallies per connection: each mount seals its own tally (a mount that
// staged nothing seals zero), nothing is visible before the commit, and
// the one commit — by one mount, the others just leave the epoch —
// applies what every connection staged.
func TestMultiMountEpochCommit(t *testing.T) {
	a, servers := startServers(t, 4096, 1, nil)
	mount := func() *Striped {
		m, err := NewStriped(4096, []string{a.Clients()[0].Addr()}, ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m
	}
	b, idle := mount(), mount()

	base := bytes.Repeat([]byte{0xAA}, 8192)
	if _, err := a.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), base...)
	mounts := []*Striped{a, b, idle}
	for _, m := range mounts {
		m.EpochBegin(11)
	}
	for i := 0; i < 8; i++ {
		chunk := bytes.Repeat([]byte{byte(0xB0 + i)}, 512)
		off := int64(i * 1024)
		copy(want[off:], chunk)
		if _, err := mounts[i%2].WriteAt(chunk, off); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, len(base))
	if _, err := idle.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, base) {
		t.Fatal("staged writes visible before commit")
	}
	for i, m := range mounts {
		if err := m.EpochSeal(11); err != nil {
			t.Fatalf("mount %d seal: %v", i, err)
		}
	}
	if err := a.EpochCommit(11); err != nil {
		t.Fatal(err)
	}
	b.EpochEnd(11)
	idle.EpochEnd(11)
	if _, err := idle.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("committed bytes differ: staging over several connections lost data")
	}
	if st := servers[0].Stats(); st.StagedWrites != 8 || st.EpochsCommitted != 1 {
		t.Fatalf("server saw %d staged writes and %d commits, want 8 and 1", st.StagedWrites, st.EpochsCommitted)
	}
}
