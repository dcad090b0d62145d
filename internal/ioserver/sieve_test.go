package ioserver

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"testing"

	"repro/internal/datatype"
	"repro/internal/datatype/datatypetest"
	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// The sieve tests drive a server's request handlers in process: a
// connState without a connection behind it, requests handed to dispatch.

// localConn returns a handler state for srv that no connection feeds.
func localConn(srv *Server) *connState {
	return &connState{srv: srv, views: make(map[uint64]*serverView), byKey: make(map[string]*serverView)}
}

// register registers (disp, t) on st and returns the cached view.
func (st *connState) register(tb testing.TB, disp int64, t *datatype.Type) *serverView {
	tb.Helper()
	resp, err := st.dispatch(opRegister, append(putV(nil, disp), datatype.Encode(t)...))
	if err != nil {
		tb.Fatal(err)
	}
	h, _, err := getV(resp)
	if err != nil {
		tb.Fatal(err)
	}
	return st.views[uint64(h)]
}

// viewOp issues op on (v, d0, d1) with the given write payload.
func (st *connState) viewOp(op int, v *serverView, d0, d1 int64, data []byte) ([]byte, error) {
	req := putV(putV(putV(nil, int64(v.handle)), d0), d1)
	resp, err := st.dispatch(op, append(req, data...))
	return bytes.Clone(resp), err
}

// oracleRun is one contiguous piece of a view access: n bytes at file
// offset off, carrying data bytes [d, d+n).
type oracleRun struct{ off, d, n int64 }

// oracleRuns lists the runs backing data range [d0, d1) of the view in
// data order, from (*datatype.Type).Walk alone: instance k of the type
// map sits at k*extent, data offsets count the map's bytes in map order.
func oracleRuns(t *datatype.Type, disp, d0, d1 int64) []oracleRun {
	var out []oracleRun
	size, ext := t.Size(), t.Extent()
	for k := d0 / size; k*size < d1; k++ {
		d := k * size
		t.Walk(func(off, n int64) {
			lo, hi := max(d, d0), min(d+n, d1)
			if lo < hi {
				out = append(out, oracleRun{disp + k*ext + off + lo - d, lo, hi - lo})
			}
			d += n
		})
	}
	return out
}

// oracleStripes is the flat reference: one byte slice per stripe, moved
// run by run with the geometry's own arithmetic and nothing else.
type oracleStripes struct {
	g       storage.StripeGeom
	stripes [][]byte
}

// write applies data (data byte d at data[d-d0]) along runs and returns
// the per-stripe payload streams a client must ship for it.
func (o *oracleStripes) write(runs []oracleRun, d0 int64, data []byte) [][]byte {
	streams := make([][]byte, o.g.Count)
	for _, r := range runs {
		o.g.Each(r.off, r.n, func(stripe int, local, lo, hi int64) error {
			src := data[r.d-d0+lo : r.d-d0+hi]
			if need := local + hi - lo; need > int64(len(o.stripes[stripe])) {
				o.stripes[stripe] = append(o.stripes[stripe], make([]byte, need-int64(len(o.stripes[stripe])))...)
			}
			copy(o.stripes[stripe][local:], src)
			streams[stripe] = append(streams[stripe], src...)
			return nil
		})
	}
	return streams
}

// read returns the per-stripe response streams of runs, zeros past each
// stripe's end.
func (o *oracleStripes) read(runs []oracleRun) [][]byte {
	streams := make([][]byte, o.g.Count)
	for _, r := range runs {
		o.g.Each(r.off, r.n, func(stripe int, local, lo, hi int64) error {
			piece := make([]byte, hi-lo)
			if local < int64(len(o.stripes[stripe])) {
				copy(piece, o.stripes[stripe][local:])
			}
			streams[stripe] = append(streams[stripe], piece...)
			return nil
		})
	}
	return streams
}

// fuzzView draws a view: the sparse vectors and legal filetypes the
// navigated path exists for, shapes on both sides of the page-density
// threshold, and type maps that do not ascend (shuffled, overlapping,
// descending), which both ends must refuse.
func fuzzView(r *rand.Rand) *datatype.Type {
	must := func(t *datatype.Type, err error) *datatype.Type {
		if err != nil {
			panic(err)
		}
		return t
	}
	switch r.Intn(6) {
	case 0: // sparse vector, runs far below a page apart
		bl := 1 + r.Int63n(16)
		return must(datatype.Vector(1+r.Int63n(200), bl, bl+r.Int63n(64), datatype.Byte))
	case 1: // runs of pages, a page or more apart: never dense
		bl := storage.PageSize * (1 + r.Int63n(4))
		return must(datatype.Vector(1+r.Int63n(6), bl, bl+storage.PageSize*r.Int63n(3), datatype.Byte))
	case 2: // irregular monotone blocks, small to over a page
		n := 1 + r.Intn(40)
		bl, displs := make([]int64, n), make([]int64, n)
		var pos int64
		for i := range bl {
			bl[i] = 1 + r.Int63n(1<<uint(r.Intn(14)))
			displs[i] = pos
			pos += bl[i] + r.Int63n(1<<uint(r.Intn(14)))
		}
		return must(datatype.Hindexed(bl, displs, datatype.Byte))
	case 3: // the same blocks in shuffled order: not monotone
		n := 2 + r.Intn(20)
		bl, displs := make([]int64, n), make([]int64, n)
		var pos int64
		for i := range bl {
			bl[i] = 1 + r.Int63n(32)
			displs[i] = pos
			pos += bl[i] + r.Int63n(64)
		}
		r.Shuffle(n, func(i, j int) { bl[i], bl[j], displs[i], displs[j] = bl[j], bl[i], displs[j], displs[i] })
		return must(datatype.Hindexed(bl, displs, datatype.Byte))
	case 4: // descending or self-overlapping strides
		count, bl := 2+r.Int63n(20), 1+r.Int63n(8)
		stride := r.Int63n(3*bl) - bl
		hv := must(datatype.Hvector(count, bl, stride, datatype.Byte))
		return must(datatype.Hindexed([]int64{1}, []int64{-hv.TrueLB()}, hv))
	}
	return datatypetest.RandomFiletype(r, 2+r.Intn(3))
}

// sieveRig is one differential subject: a server per stripe over Mem,
// with a handler state and the registered view on each.
type sieveRig struct {
	mems  []*storage.Mem
	conns []*connState
	views []*serverView
}

func newSieveRig(tb testing.TB, g storage.StripeGeom, window int64, prefill [][]byte, disp int64, t *datatype.Type, tree bool) *sieveRig {
	rig := &sieveRig{}
	for i := 0; i < g.Count; i++ {
		mem := storage.NewMem()
		if _, err := mem.WriteAt(prefill[i], 0); err != nil {
			tb.Fatal(err)
		}
		srv, err := New(Config{Backend: mem, Geom: g, Index: i})
		if err != nil {
			tb.Fatal(err)
		}
		srv.window = window
		st := localConn(srv)
		v := st.register(tb, disp, t)
		if tree {
			// The cursor of a type that declined compilation: the tree.
			v.prog = nil
		}
		rig.mems, rig.conns, rig.views = append(rig.mems, mem), append(rig.conns, st), append(rig.views, v)
	}
	return rig
}

// FuzzSieveVsRuns is the differential layer of server-side sieving: the
// same view requests go to servers cutting by the view's program, to
// servers whose cursor walks the tree (both at small windows, so that
// requests straddle them), and to a flat oracle built from the type map
// alone.  After a write every stripe must be byte-identical on all
// three, lengths included; a read must return the oracle's streams, with
// zeros past each stripe's end.  The write payloads come from the client
// side's own partition, so that side is held to the oracle as well.  A
// view SetView refuses is refused by the server and by the client before
// any request leaves.
func FuzzSieveVsRuns(f *testing.F) {
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 24; i++ {
		f.Add(r.Int63(), uint16(r.Intn(1<<16)), uint8(r.Intn(256)), uint16(r.Intn(1<<16)), r.Uint32(), r.Uint32(), r.Uint32())
	}
	// The client end of a refusal: no request may leave it, so no server
	// listens behind it.
	refuser, err := NewStriped(64, []string{"127.0.0.1:1"}, ClientOptions{})
	if err != nil {
		f.Fatal(err)
	}
	defer refuser.Close()
	f.Fuzz(func(t *testing.T, seed int64, unit uint16, count uint8, window uint16, from, length, fill uint32) {
		r := rand.New(rand.NewSource(seed))
		ft := fuzzView(r)
		disp := r.Int63n(100)
		if datatype.ValidateFiletype(datatype.Byte, ft) != nil {
			requireRefused(t, refuser, disp, ft)
			return
		}
		g := storage.StripeGeom{Unit: 1 + int64(unit)%9000, Count: 1 + int(count)%4}
		win := 16 + int64(window)
		size := ft.Size()
		d0 := int64(from) % (3 * size)
		d1 := d0 + 1 + int64(length)%min(4*size, 1<<17)

		// What the stripes hold beforehand: random bytes up to somewhere
		// inside the access, so that it reads past the end and extends.
		runs := oracleRuns(ft, disp, d0, d1)
		var end int64
		for _, run := range runs {
			end = max(end, run.off+run.n)
		}
		oracle := &oracleStripes{g: g, stripes: make([][]byte, g.Count)}
		for i := range oracle.stripes {
			oracle.stripes[i] = make([]byte, int64(fill)%(g.LocalLen(end, i)+1))
			r.Read(oracle.stripes[i])
		}
		compiled := newSieveRig(t, g, win, oracle.stripes, disp, ft, false)
		tree := newSieveRig(t, g, win, oracle.stripes, disp, ft, true)

		data := make([]byte, d1-d0)
		r.Read(data)
		want := oracle.write(runs, d0, data)
		av := &aggView{v: &View{Disp: disp}, t: ft}
		shares, lens, err := av.partition(g, data, d0)
		if err != nil {
			t.Fatal(err)
		}
		streams := make([][]byte, g.Count)
		for i := range shares {
			streams[i] = bytes.Join(shares[i], nil)
		}
		for i := range streams {
			if !bytes.Equal(streams[i], want[i]) || lens[i] != len(want[i]) {
				t.Fatalf("%v on %+v: client partition of [%d,%d) for stripe %d differs from the oracle's", ft, g, d0, d1, i)
			}
		}
		for name, rig := range map[string]*sieveRig{"program": compiled, "tree": tree} {
			for i, st := range rig.conns {
				if _, err := st.viewOp(opViewWrite, rig.views[i], d0, d1, streams[i]); err != nil {
					t.Fatalf("%s write: %v", name, err)
				}
				if got := memBytes(rig.mems[i]); !bytes.Equal(got, oracle.stripes[i]) {
					t.Fatalf("%v disp %d on %+v window %d: %s stripe %d after writing [%d,%d) differs from the oracle (len %d, want %d)",
						ft, disp, g, win, name, i, d0, d1, len(got), len(oracle.stripes[i]))
				}
			}
		}

		// Read another range back, usually overlapping what was written
		// and running past the end of the stripes.
		r0 := int64(r.Uint32()) % (3 * size)
		r1 := r0 + 1 + r.Int63n(min(4*size, 1<<17))
		wantRead := oracle.read(oracleRuns(ft, disp, r0, r1))
		for name, rig := range map[string]*sieveRig{"program": compiled, "tree": tree} {
			for i, st := range rig.conns {
				got, err := st.viewOp(opViewRead, rig.views[i], r0, r1, nil)
				if err != nil {
					t.Fatalf("%s read: %v", name, err)
				}
				if !bytes.Equal(got, wantRead[i]) {
					t.Fatalf("%v disp %d on %+v window %d: %s stripe %d read of [%d,%d) differs from the oracle",
						ft, disp, g, win, name, i, r0, r1)
				}
			}
		}
	})
}

// TestSieveRule pins the page-density rule on both sides of its
// threshold, by whether a request moved sieve windows.
func TestSieveRule(t *testing.T) {
	if os.Getpagesize() != 4096 {
		t.Skip("the table is written for 4 KiB pages")
	}
	g := storage.StripeGeom{Unit: 64 << 10, Count: 1}
	sparse := viewType(t, 8, 1<<10, 2048)    // 8 B every 1 KiB
	blocky := viewType(t, 16<<10, 32<<10, 8) // 16 KiB every 32 KiB
	cases := []struct {
		name   string
		sieves bool
		run    func(st *connState) error
	}{
		{"8 B at 1 KiB, view write", true, func(st *connState) error {
			_, err := st.viewOp(opViewWrite, st.register(t, 0, sparse), 0, 8192, make([]byte, 8192))
			return err
		}},
		{"8 B at 1 KiB, view read", true, func(st *connState) error {
			_, err := st.viewOp(opViewRead, st.register(t, 0, sparse), 0, 8192, nil)
			return err
		}},
		{"16 KiB at 32 KiB, view write", false, func(st *connState) error {
			_, err := st.viewOp(opViewWrite, st.register(t, 0, blocky), 0, 64<<10, make([]byte, 64<<10))
			return err
		}},
		{"16 KiB at 32 KiB, view read", false, func(st *connState) error {
			_, err := st.viewOp(opViewRead, st.register(t, 0, blocky), 0, 64<<10, nil)
			return err
		}},
		{"one run", false, func(st *connState) error {
			_, err := st.viewOp(opViewWrite, st.register(t, 0, sparse), 0, 8, make([]byte, 8))
			return err
		}},
		{"adjacent 64 KiB pieces, commit apply", false, func(st *connState) error {
			for i := int64(0); i < 16; i++ {
				req := append(putVs(nil, 1, 1, i<<16, 64<<10), make([]byte, 64<<10)...)
				if _, err := st.dispatch(opStageWritev, req); err != nil {
					return err
				}
			}
			return st.srv.commitEpoch(1, st.srv.incarnation)
		}},
		{"8 B at 1 KiB staged through the view, commit apply", true, func(st *connState) error {
			v := st.register(t, 0, sparse)
			req := append(putV(putV(putV(putV(nil, 1), int64(v.handle)), 0), 8192), make([]byte, 8192)...)
			if _, err := st.dispatch(opStageViewWrite, req); err != nil {
				return err
			}
			if n := st.srv.sieveWindows.Load(); n != 0 {
				return fmt.Errorf("staging moved %d windows", n)
			}
			return st.srv.commitEpoch(1, st.srv.incarnation)
		}},
		{"8 B at 1 KiB as an offset list", true, func(st *connState) error {
			req := putV(nil, 64)
			for i := int64(0); i < 64; i++ {
				req = putV(putV(req, i<<10), 8)
			}
			_, err := st.dispatch(opWritev, append(req, make([]byte, 64*8)...))
			return err
		}},
	}
	for _, c := range cases {
		srv, err := New(Config{Backend: storage.NewMem(), Geom: g, Index: 0})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.run(localConn(srv)); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := srv.sieveWindows.Load() > 0; got != c.sieves {
			t.Errorf("%s: sieved = %v, want %v", c.name, got, c.sieves)
		}
	}
}

// TestSieveObservability checks what a sieved request leaves behind: the
// server's sieve counters and request stats, and one server.sieve span
// per window that carries the window's local offset and the request
// bytes it moved.
func TestSieveObservability(t *testing.T) {
	tr := trace.NewCollector(0).Tracer(0)
	srv, err := New(Config{Backend: storage.NewMem(), Geom: storage.StripeGeom{Unit: 64 << 10, Count: 1}, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	st := localConn(srv)
	v := st.register(t, 0, viewType(t, 8, 1<<10, 1024)) // 1 MiB of file: four windows
	if _, err := st.viewOp(opViewWrite, v, 0, 8192, make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}
	// A window runs from its first run to the end of its last, and a
	// write both reads and writes it.
	traffic := int64(2 * 4 * (255<<10 + 8))
	if w, b := srv.sieveWindows.Load(), srv.sieveBytes.Load(); w != 4 || b != traffic {
		t.Fatalf("the server counts %d windows and %d bytes, want 4 and %d", w, b, traffic)
	}
	if st := srv.Stats(); st.ViewWrites != 1 || st.BytesWritten != 8192 {
		t.Fatalf("stats %s after one 8 KiB view write", st)
	}
	var useful, windows int64
	for _, ev := range tr.Events() {
		if ev.Phase == trace.PhaseServerSieve {
			if ev.Window != windows*sieveWindow {
				t.Errorf("window %d starts at local offset %d", windows, ev.Window)
			}
			useful += ev.Bytes
			windows++
		}
	}
	if windows != 4 || useful != 8192 {
		t.Fatalf("trace holds %d sieve spans carrying %d bytes, want 4 carrying 8192", windows, useful)
	}
}

// countingBackend counts the plain and the vectored write calls that
// reach a Mem.
type countingBackend struct {
	*storage.Mem
	writes, writevs int
}

func (c *countingBackend) WriteAt(p []byte, off int64) (int, error) {
	c.writes++
	return c.Mem.WriteAt(p, off)
}

func (c *countingBackend) WriteAtv(segs []storage.Segment) error {
	c.writevs++
	return c.Mem.WriteAtv(segs)
}

// TestStageJournalsOneWrite pins that a staged request costs the journal
// one vectored backend write however many segments it stages, and that
// recovery still finds every one of them.
func TestStageJournalsOneWrite(t *testing.T) {
	jb := &countingBackend{Mem: storage.NewMem()}
	stripe := storage.NewMem()
	srv, err := New(Config{Backend: stripe, Geom: storage.StripeGeom{Unit: 1 << 20, Count: 1}, Journal: NewJournal(jb)})
	if err != nil {
		t.Fatal(err)
	}
	st := localConn(srv)
	v := st.register(t, 0, viewType(t, 8, 1<<10, 512))
	data := make([]byte, 512*8)
	rand.New(rand.NewSource(1)).Read(data)
	req := append(putV(putV(putV(putV(nil, 3), int64(v.handle)), 0), int64(len(data))), data...)
	if _, err := st.dispatch(opStageViewWrite, req); err != nil {
		t.Fatal(err)
	}
	if jb.writevs != 1 || jb.writes != 0 {
		t.Fatalf("staging 512 runs cost the journal %d vectored and %d plain writes, want 1 and 0", jb.writevs, jb.writes)
	}
	if err := srv.journal.AppendCommit(3); err != nil {
		t.Fatal(err)
	}
	if _, info, err := RecoverJournal(jb, stripe); err != nil || info.AppliedBytes != int64(len(data)) {
		t.Fatalf("recovery applied %d of %d staged bytes (%v)", info.AppliedBytes, len(data), err)
	}
	back, err := st.viewOp(opViewRead, v, 0, int64(len(data)), nil)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("recovered stripe does not hold the staged runs (%v)", err)
	}
}

// TestSieveConcurrentWriters is the lost-update test of the sieve's
// read-modify-write.  Four connections share one stripe's windows: two
// write sparse views half a stride apart, one stages a third view and
// commits it as an epoch (all three page-dense, so they sieve), and one
// issues raw offset lists into the gaps that remain, too far apart to
// sieve.  Each owns its bytes alone and rewrites them every round, so any
// byte that does not hold its owner's latest data — checked by each owner
// before its next write and against the oracle at the end — was undone by
// somebody else's window.
func TestSieveConcurrentWriters(t *testing.T) {
	check := testutil.LeakCheck(t)
	const (
		run, span = 8, 3 << 20 // 3 MiB of file: several windows
		rounds    = 12
	)
	mem := storage.NewMem()
	srv, err := New(Config{Backend: mem, Geom: storage.StripeGeom{Unit: 64 << 10, Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		srv.Close()
		check()
	}()

	// Writer w's runs start at w*256 and are 1 KiB apart, the raw
	// writer's 8 KiB.
	stride := func(w int) int64 {
		if w == 3 {
			return 8 << 10
		}
		return 1 << 10
	}
	// payload is writer w's data for a round: every byte names both.
	payload := func(w, round int) []byte {
		p := make([]byte, span/stride(w)*run)
		for i := range p {
			p[i] = byte(w*64 + round*5 + i%3)
		}
		return p
	}
	write := func(c *Client, v *View, w, round int) error {
		p := payload(w, round)
		switch w {
		case 2: // staged and committed
			c.BeginEpoch(uint64(round + 1))
			if err := viewWrite(c, v, 0, int64(len(p)), p); err != nil {
				return err
			}
			if err := c.SealEpoch(uint64(round + 1)); err != nil {
				return err
			}
			return c.CommitEpoch(uint64(round + 1))
		case 3: // raw offset lists into the gaps
			segs := make([]storage.Segment, len(p)/run)
			for i := range segs {
				segs[i] = storage.Segment{Off: v.Disp + int64(i)*stride(w), Buf: p[i*run : (i+1)*run]}
			}
			return c.WriteAtv(segs)
		}
		return viewWrite(c, v, 0, int64(len(p)), p)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewClient(ln.Addr().String(), ClientOptions{})
			defer c.Close()
			v := &View{Disp: int64(w) * 256, Enc: datatype.Encode(viewType(t, run, stride(w), span/stride(w)))}
			for round := 0; round < rounds; round++ {
				if round > 0 {
					got := make([]byte, span/stride(w)*run)
					_, err := c.ViewReadRange(v, 0, int64(len(got)), [][]byte{got})
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(got, payload(w, round-1)) {
						t.Errorf("writer %d lost bytes of round %d to another writer's window", w, round-1)
						return
					}
				}
				if err := write(c, v, w, round); err != nil {
					t.Errorf("writer %d round %d: %v", w, round, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := make([]byte, span)
	var end int64
	for w := 0; w < 4; w++ {
		p := payload(w, rounds-1)
		for i := int64(0); i < int64(len(p)/run); i++ {
			off := int64(w)*256 + i*stride(w)
			copy(want[off:], p[i*run:(i+1)*run])
			end = max(end, off+run)
		}
	}
	if !bytes.Equal(memBytes(mem), want[:end]) {
		t.Fatal("final stripe differs from the oracle")
	}
	if srv.sieveWindows.Load() == 0 {
		t.Fatal("no request took the sieve path")
	}
}
