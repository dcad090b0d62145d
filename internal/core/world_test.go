package core

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/datatype"
	"repro/internal/ioserver"
	"repro/internal/mpi"
	"repro/internal/pool"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/transport"
)

// The package's tests hold every access to one flat oracle (flat), worked
// out from the datatypes' Walk alone — no engine, flattening, exchange or
// storage code — and run it in worlds of one builder (world) over
// (engine, fabric, backend, P).

var engines = []Engine{Listless, ListBased}

// watchdogTimeout bounds every world: a protocol bug shows up as an
// ErrStalled diagnostic, not a hung test run.
const watchdogTimeout = 10 * time.Second

// background is what a file holds before an access writes over it.
const background = 0x5A

// pattern is rank's n bytes of data: a sequence of period 251, laid out
// once and then copied, which under -race costs a range, not a byte.
func pattern(rank int, n int64) []byte {
	b := make([]byte, n)
	for i := range b[:min(n, 251)] {
		b[i] = byte((rank*131 + i*7) % 251)
	}
	for i := 251; i < len(b); i *= 2 {
		copy(b[i:], b[:i])
	}
	return b
}

func mustType(dt *datatype.Type, err error) *datatype.Type {
	if err != nil {
		panic(err)
	}
	return dt
}

func hvecBytes(n, run, pitch int64) *datatype.Type {
	return mustType(datatype.Hvector(n, run, pitch, datatype.Byte))
}

// holeyDouble is 8 data bytes in every 16: with a compiled fileview the
// listless engine fuses the copies of rank-local bytes through it.
func holeyDouble() *datatype.Type { return mustType(datatype.Resized(datatype.Double, 0, 16)) }

// noncontigTypeP is the Figure-4 fileview of rank p of P: blockcount
// blocks of blocklen bytes, P*blocklen apart, displaced by p*blocklen,
// extent blockcount*P*blocklen.  The ranks' views tile the file.
func noncontigTypeP(p, P int, blockcount, blocklen int64) *datatype.Type {
	return mustType(datatype.Struct([]int64{1, 1, 1}, []int64{0, int64(p) * blocklen, blockcount * int64(P) * blocklen},
		[]*datatype.Type{datatype.LBMarker, hvecBytes(blockcount, blocklen, int64(P)*blocklen), datatype.UBMarker}))
}

// viewFn is every rank's fileview.
type viewFn func(rank int) (disp int64, ft *datatype.Type)

// fig4 is the Figure-4 views of P ranks.
func fig4(P int, blockcount, blocklen int64) viewFn {
	return func(rank int) (int64, *datatype.Type) { return 0, noncontigTypeP(rank, P, blockcount, blocklen) }
}

// stridedView is rank's share of runs of run bytes, the ranks' runs
// pitch bytes apart and each rank's own P*pitch apart: interleaved, with
// a hole after every run when run < pitch.  The rank's offset is inside
// its filetype, whose lower bound and extent every rank shares, so that
// SetView proves the views disjoint and a collective write may take
// direct windows.
func stridedView(P int, n, run, pitch int64) viewFn {
	return func(rank int) (int64, *datatype.Type) {
		at := mustType(datatype.Hindexed([]int64{1}, []int64{int64(rank) * pitch}, hvecBytes(n, run, int64(P)*pitch)))
		return 0, mustType(datatype.Resized(at, 0, n*int64(P)*pitch))
	}
}

// declinedViews is view with every rank's fileview extended by
// declinedType, so that no view compiles.
func declinedViews(t testing.TB, P int, view viewFn) viewFn {
	disps, fts := make([]int64, P), make([]*datatype.Type, P)
	for rank := range fts {
		disp, ft := view(rank)
		disps[rank], fts[rank] = disp, declinedType(t, ft)
	}
	return func(rank int) (int64, *datatype.Type) { return disps[rank], fts[rank] }
}

// places calls place(off, at, n) for each contiguous piece of data bytes
// [from, to) of ft tiled every extent from disp, in data order, where off
// is the piece's byte offset and at its data offset: from the type map
// alone.
func places(disp int64, ft *datatype.Type, from, to int64, place func(off, at, n int64)) {
	if to <= from || ft.Size() == 0 {
		return
	}
	runs := make([][2]int64, 0, ft.Blocks()) // one instance's, walked once
	ft.Walk(func(off, length int64) { runs = append(runs, [2]int64{off, length}) })
	for tile, pos := from/ft.Size(), from/ft.Size()*ft.Size(); pos < to; tile++ {
		for _, r := range runs {
			if lo, hi := max(pos, from), min(pos+r[1], to); lo < hi {
				place(disp+tile*ft.Extent()+r[0]+lo-pos, lo, hi-lo)
			}
			if pos += r[1]; pos >= to {
				break
			}
		}
	}
}

// put copies src to dst, a one-byte piece by assignment: under -race a
// copy costs a range access, and a walk past fotf's compile limits is
// thousands of one-byte pieces.
func put(dst, src []byte) {
	if len(src) == 1 {
		dst[0] = src[0]
		return
	}
	copy(dst, src)
}

// userBuf lays data out in memory by mt, over a background of 0xEE that
// the accesses must leave alone, as count instances of it; mt nil is
// contiguous memory: data itself, one byte per instance.
func userBuf(data []byte, mt *datatype.Type) (buf []byte, count int64) {
	if mt == nil {
		return bytes.Clone(data), int64(len(data))
	}
	count = int64(len(data)) / mt.Size()
	if count*mt.Size() != int64(len(data)) {
		panic(fmt.Sprintf("%d data bytes are no whole number of %d-byte memtype instances", len(data), mt.Size()))
	}
	buf = bytes.Repeat([]byte{0xEE}, int(max((count-1)*mt.Extent()+mt.TrueUB(), 0)))
	if mt.ContiguousTiled() { // one run from TrueLB: no walk per instance
		copy(buf[mt.TrueLB():], data)
		return buf, count
	}
	places(0, mt, 0, int64(len(data)), func(off, at, n int64) { put(buf[off:off+n], data[at:at+n]) })
	return buf, count
}

// oracle is what a write and read-back of every rank's data must do.
type oracle struct {
	file   []byte       // the background, the views' bytes over it, and 777 bytes more no window may touch
	bufs   [][]byte     // each rank's user buffer, holding its data
	reads  [][]byte     // each rank's user buffer after it read its view back
	count  []int64      // memtype instances per rank
	data   [][]byte     // each rank's data
	pieces [][][3]int64 // each rank's: file offset, data offset, length
}

// bare is the views' bytes alone, written into an empty file.
func (o oracle) bare() []byte {
	file := make([]byte, len(o.file)-777)
	for r, d := range o.data {
		for _, p := range o.pieces[r] {
			put(file[p[0]:p[0]+p[2]], d[p[1]:p[1]+p[2]])
		}
	}
	return file
}

// flat is the oracle of rank r writing data[r] from data offset off of
// view(r), laid out in memory by mem(r) (nil, or mem nil: contiguous): the
// ranks write in rank order, so the higher rank wins a byte two views
// share, and every rank reads its own bytes back.
func flat(view viewFn, mem func(rank int) *datatype.Type, off int64, data [][]byte) oracle {
	var o oracle
	memOf := func(rank int) *datatype.Type {
		if mem == nil {
			return nil
		}
		return mem(rank)
	}
	pieces := make([][][3]int64, len(data)) // walked once
	var end int64
	for r, d := range data {
		disp, ft := view(r)
		pieces[r] = make([][3]int64, 0, (int64(len(d))/max(ft.Size(), 1)+2)*ft.Blocks())
		places(disp, ft, off, off+int64(len(d)), func(at, x, n int64) {
			pieces[r] = append(pieces[r], [3]int64{at, x - off, n})
			end = max(end, at+n)
		})
	}
	o.file, o.data, o.pieces = bytes.Repeat([]byte{background}, int(end)+777), data, pieces
	for r, d := range data {
		for _, p := range pieces[r] {
			put(o.file[p[0]:p[0]+p[2]], d[p[1]:p[1]+p[2]])
		}
		buf, count := userBuf(d, memOf(r))
		o.bufs, o.count = append(o.bufs, buf), append(o.count, count)
	}
	for r, d := range data {
		back := make([]byte, len(d))
		for _, p := range pieces[r] {
			put(back[p[1]:p[1]+p[2]], o.file[p[0]:p[0]+p[2]])
		}
		if bytes.Equal(back, d) { // no later rank's view took a byte of r's
			o.reads = append(o.reads, o.bufs[r])
			continue
		}
		buf, _ := userBuf(back, memOf(r))
		o.reads = append(o.reads, buf)
	}
	return o
}

// world is one way to run P ranks over one file: the options every rank
// opens it with, the fabric between the ranks and the backend under them.
type world struct {
	P    int
	opts Options
	tcp  bool // ranks over local TCP sockets, else the in-process loopback
	// backend is "mem" (or ""), "throttled", "faulty", "file",
	// "shared-file" (each rank through an OpenFileShared handle of its
	// own), "striped" (three Mems in 64-byte units), or one that commits
	// collective writes by epoch, "epoch-mem" or "tier".  Every one but
	// an epoch backend is counted by an Instrumented.
	backend string
	// wrap, when set, is put over the backend: on "faulty" over each
	// rank's Faulty, so that each rank mounts the file as OS-process
	// ranks do.
	wrap          func(storage.Backend) storage.Backend
	servers, unit int64                           // of a "tier": 2 servers and 4 KiB stripes unless set
	tier          *tier                           // set: the "tier", which the caller closes
	link          func(eps []transport.Transport) // set: wraps the endpoints, for a slow link
	trace         *trace.Collector
	// checked: with opts.pool nil the world runs on a checked pool of its
	// own, which poisons every buffer put back and panics on a second put
	// or a use after one, not on the process-wide pool.
	checked  bool
	linkPool bool // over TCP the links draw their frames from the checked pool too
}

// rank is what a rank's body is given.
type rank struct {
	p    *mpi.Proc
	f    *File
	fb   *storage.Faulty       // the rank's own, on a "faulty" backend
	inst *storage.Instrumented // nil on an epoch backend
}

// reads is the backend reads the world has made, 0 on an epoch backend.
func (r rank) reads() int64 {
	if r.inst == nil {
		return 0
	}
	return r.inst.Stats().Reads
}

// ran is what a world left.
type ran struct {
	file    []byte // the bytes of the backend after the world
	comm    mpi.Stats
	stats   Stats   // the ranks' summed Stats at the ends of their bodies
	perRank []Stats // each rank's
	inst    storage.AccessStats
	// writeReads is the backend reads roundTrip's write made.
	writeReads int64
}

// run writes bg over the backend, then runs body on every rank of the
// world, each through a File it opened over the backend and closes after
// body.  A checked pool of the world's own must be balanced afterwards on
// the loopback, where no link draws from it, faults injected or not:
// every buffer taken was put back.
func (w world) run(t testing.TB, bg []byte, body func(r rank)) ran {
	t.Helper()
	mem := storage.NewMem()
	var store storage.Backend = mem
	var own []*Shared // each rank's, on a "shared-file"
	switch w.backend {
	case "", "mem", "faulty":
	case "throttled":
		store = storage.NewThrottled(mem, 50*time.Microsecond)
	case "striped":
		striped, err := storage.NewStriped(64, mem, storage.NewMem(), storage.NewMem())
		if err != nil {
			t.Fatal(err)
		}
		store = striped
	case "epoch-mem":
		store = &epochMem{Mem: mem}
	case "tier":
		tier := w.tier
		if tier == nil {
			tier = newTier(t, cmp.Or(w.unit, 4096), int(cmp.Or(w.servers, 2)))
			defer tier.close()
		}
		store = tier.mount(t)
	case "file", "shared-file":
		path, open := filepath.Join(t.TempDir(), "file.dat"), storage.OpenFile
		if w.backend == "shared-file" {
			open = storage.OpenFileShared // OpenFile locks out the ranks' handles
		}
		fb, err := open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fb.Close()
		store = fb
		for r := 0; r < w.P && w.backend == "shared-file"; r++ {
			h, err := storage.OpenFileShared(path)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			own = append(own, NewShared(h))
		}
	default:
		t.Fatalf("no backend %q", w.backend)
	}
	if len(bg) > 0 {
		// One vectored call: a tier takes one request per server, not one
		// per stripe unit.
		if err := storage.WriteAtv(store, []storage.Segment{{Off: 0, Buf: bg}}); err != nil {
			t.Fatal(err)
		}
	}
	be := store
	var inst *storage.Instrumented
	if w.backend != "epoch-mem" && w.backend != "tier" {
		inst = storage.NewInstrumented(store)
		be = inst
	}
	if w.wrap != nil && w.backend != "faulty" {
		be = w.wrap(be)
	}
	sh, fbs := NewShared(be), make([]*storage.Faulty, w.P)
	shs := make([]*Shared, w.P)
	for r := range shs {
		shs[r] = sh
		if own != nil {
			shs[r] = own[r]
		}
		if w.backend == "faulty" {
			fbs[r] = storage.NewFaulty(inst)
			var b storage.Backend = fbs[r]
			if w.wrap != nil {
				b = w.wrap(b)
			}
			shs[r] = NewShared(b)
		}
	}
	opts, links := w.opts, transport.TCPConfig{}
	if opts.pool == nil && w.checked {
		opts.pool = pool.NewChecked()
		if w.linkPool {
			links.Pool = opts.pool
		}
	}
	opts.Trace = w.trace
	eps := transport.NewLoopback(w.P)
	if w.tcp {
		var err error
		if eps, err = transport.NewLocalTCPWorld(w.P, links); err != nil {
			t.Fatal(err)
		}
	}
	if w.link != nil {
		w.link(eps)
	}
	res := ran{perRank: make([]Stats, w.P)}
	comm, err := mpi.RunOver(eps, mpi.RunOptions{StallTimeout: watchdogTimeout, Trace: w.trace}, func(p *mpi.Proc) {
		f, err := Open(p, shs[p.Rank()], opts)
		if err != nil {
			panic(err)
		}
		defer f.Close()
		body(rank{p: p, f: f, fb: fbs[p.Rank()], inst: inst})
		res.perRank[p.Rank()] = f.Stats
	})
	if err != nil {
		t.Fatalf("world %+v: %v", w, err)
	}
	res.comm, res.file = comm, flattenBackend(t, store)
	for _, s := range res.perRank {
		res.stats = res.stats.add(s)
	}
	if inst != nil {
		res.inst = inst.Stats()
	}
	if w.opts.pool == nil && w.checked && !w.tcp {
		if ps := opts.pool.Stats(); ps.Gets != ps.Puts {
			t.Errorf("world %+v: %d buffers taken from the pool, %d put back", w, ps.Gets, ps.Puts)
		}
	}
	return res
}

// add is s plus o, field by field.
func (s Stats) add(o Stats) Stats {
	a, b := reflect.ValueOf(&s).Elem(), reflect.ValueOf(o)
	for i := 0; i < a.NumField(); i++ {
		a.Field(i).SetInt(a.Field(i).Int() + b.Field(i).Int())
	}
	return s
}

// access is one write and read-back of every rank's data through its
// view, from data offset off.
type access struct {
	view   viewFn
	before viewFn                        // set: a view SetView installs first, which view replaces
	etype  *datatype.Type                // nil: bytes
	mem    func(rank int) *datatype.Type // nil: contiguous memory
	d      int64                         // data bytes per rank
	dOf    func(rank int) int64          // set: data bytes of each rank, in place of d
	off    int64                         // in etypes
	seed   int                           // of every rank's pattern
	indep  bool                          // WriteAt and ReadAt, else the collectives
	check  func(r rank)                  // set: run on every rank after SetView
}

// roundTrip runs a in w and holds it to the oracle: the write leaves the
// user buffers as they were, the read fills each rank's data bytes and
// leaves the buffer's holes alone, the handle references no buffer
// afterwards, and the file is the oracle's byte for byte.  A collective
// access runs over a background; an independent one grows an empty file,
// as a sieve window's read-modify-write racing another's on a file that
// grows under it is the race its window lock is for.
func (w world) roundTrip(t testing.TB, a access) ran {
	t.Helper()
	etype := datatype.Byte
	if a.etype != nil {
		etype = a.etype
	}
	data := make([][]byte, w.P)
	for r := range data {
		d := a.d
		if a.dOf != nil {
			d = a.dOf(r)
		}
		data[r] = pattern(r*5+1+a.seed, d)
	}
	o := flat(a.view, a.mem, a.off*etype.Size(), data)
	bg, want := o.file, o.file
	if a.indep {
		bg, want = nil, o.bare()
	}
	var writeReads int64
	res := w.run(t, bg, func(r rank) {
		rk := r.p.Rank()
		for _, v := range []viewFn{a.before, a.view} {
			if v != nil {
				disp, ft := v(rk)
				if err := r.f.SetView(disp, etype, ft); err != nil {
					panic(err)
				}
			}
		}
		if a.check != nil {
			a.check(r)
		}
		mt := datatype.Byte
		if a.mem != nil {
			mt = a.mem(rk)
		}
		buf, got := bytes.Clone(o.bufs[rk]), bytes.Repeat([]byte{0xEE}, len(o.bufs[rk]))
		r.p.Barrier()
		reads0 := r.reads()
		var err error
		if a.indep {
			_, err = r.f.WriteAt(a.off, o.count[rk], mt, buf)
		} else {
			_, err = r.f.WriteAtAll(a.off, o.count[rk], mt, buf)
		}
		if err != nil {
			panic(err)
		}
		if !bytes.Equal(buf, o.bufs[rk]) {
			panic(fmt.Sprintf("rank %d: the write changed its user buffer", rk))
		}
		r.p.Barrier()
		if rk == 0 {
			writeReads = r.reads() - reads0
		}
		if a.indep {
			_, err = r.f.ReadAt(a.off, o.count[rk], mt, got)
		} else {
			_, err = r.f.ReadAtAll(a.off, o.count[rk], mt, got)
		}
		if err != nil {
			panic(err)
		}
		if !bytes.Equal(got, o.reads[rk]) {
			panic(fmt.Sprintf("rank %d: the read differs from the oracle's, or a hole of the user buffer was touched", rk))
		}
		if msg := keepsNoBuffer(r.f); msg != "" {
			panic(fmt.Sprintf("rank %d: %s after the access", rk, msg))
		}
	})
	if !bytes.Equal(res.file, want) {
		at := 0
		for at < min(len(res.file), len(want)) && res.file[at] == want[at] {
			at++
		}
		t.Fatalf("world %+v: the file differs from the oracle at byte %d (%d vs %d bytes)", w, at, len(res.file), len(want))
	}
	res.writeReads = writeReads
	return res
}

// keepsNoBuffer says what the handle still holds of an access that has
// returned — a segment of its batch array, a held share or a kept buffer
// that references a user or pooled buffer — or "" when nothing.
func keepsNoBuffer(f *File) string {
	for _, sg := range f.segs[:cap(f.segs)] {
		if sg.Buf != nil {
			return fmt.Sprintf("the handle's batch array (%d segments) still references a buffer", len(f.segs))
		}
	}
	for _, b := range f.kept[:cap(f.kept)] {
		if b != nil {
			return fmt.Sprintf("the handle keeps %d buffers", len(f.kept))
		}
	}
	if len(f.held) != 0 {
		return fmt.Sprintf("the handle holds %d direct shares", len(f.held))
	}
	return ""
}

// requireAgreement asserts that every rank returned the same
// rank-attributed, permanent CollectiveError, and that the failing rank's
// wraps the injected fault.
func requireAgreement(t testing.TB, label string, errs []error, wantRank int, wantPhase string) {
	t.Helper()
	for r, e := range errs {
		var ce *CollectiveError
		if !errors.As(e, &ce) {
			t.Fatalf("%s: rank %d returned %v, want a CollectiveError", label, r, e)
		}
		if ce.Rank != wantRank || ce.Phase != wantPhase {
			t.Fatalf("%s: rank %d agreed on {rank %d, phase %s}, want {rank %d, phase %s}",
				label, r, ce.Rank, ce.Phase, wantRank, wantPhase)
		}
		if !errors.Is(e, storage.ErrPermanent) {
			t.Errorf("%s: rank %d error %v lost the permanent classification", label, r, e)
		}
	}
	if !errors.Is(errs[wantRank], storage.ErrInjected) {
		t.Errorf("%s: failing rank's error %v does not wrap the injected fault", label, errs[wantRank])
	}
}

// flattenBackend reads a backend's whole contents by one vectored call.
func flattenBackend(t testing.TB, b storage.Backend) []byte {
	t.Helper()
	buf := make([]byte, b.Size())
	if len(buf) > 0 {
		if err := storage.ReadAtv(b, []storage.Segment{{Off: 0, Buf: buf}}); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// tier is an in-process tier of journaled I/O servers over Mem stripes
// whose servers restart on the addresses they had: a restart drops every
// uncommitted epoch, as a crashed server's recovery does.
type tier struct {
	geom    storage.StripeGeom
	addrs   []string
	stripes []*storage.Mem
	servers []*ioserver.Server
	mounts  []*ioserver.Striped
}

func newTier(t testing.TB, unit int64, n int) *tier {
	t.Helper()
	b := &tier{geom: storage.StripeGeom{Unit: unit, Count: n}, addrs: make([]string, n), servers: make([]*ioserver.Server, n)}
	for i := range b.addrs {
		b.stripes = append(b.stripes, storage.NewMem())
		b.addrs[i] = "127.0.0.1:0"
		b.start(i)
	}
	return b
}

// start serves stripe i on its address.  It panics on failure: a bounce
// runs on a rank's goroutine.
func (b *tier) start(i int) {
	srv, err := ioserver.New(ioserver.Config{Backend: b.stripes[i], Geom: b.geom, Index: i})
	if err != nil {
		panic(err)
	}
	ln, err := net.Listen("tcp", b.addrs[i])
	if err != nil {
		panic(err)
	}
	b.addrs[i] = ln.Addr().String()
	b.servers[i] = srv
	go srv.Serve(ln)
}

// bounce restarts server i.
func (b *tier) bounce(i int) {
	b.servers[i].Close()
	b.start(i)
}

// mount is a fresh client mount of the tier, closed with it.
func (b *tier) mount(t testing.TB) *ioserver.Striped {
	t.Helper()
	m, err := ioserver.NewStriped(b.geom.Unit, b.addrs, ioserver.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b.mounts = append(b.mounts, m)
	return m
}

// close closes the mounts and the servers.
func (b *tier) close() {
	for _, m := range b.mounts {
		m.Close()
	}
	for _, srv := range b.servers {
		srv.Close()
	}
}

// epochMem is a Mem with epochs that stage by reference, as the I/O-server
// client does: a staged write keeps the caller's segments, not a copy, and
// the commit applies them.
type epochMem struct {
	*storage.Mem
	mu     sync.Mutex
	epoch  uint64
	staged []storage.Segment
}

func (m *epochMem) SupportsEpochs() bool { return true }

func (m *epochMem) EpochBegin(id uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.epoch = id
}

func (m *epochMem) WriteAtv(segs []storage.Segment) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.epoch == 0 {
		return m.Mem.WriteAtv(segs)
	}
	m.staged = append(m.staged, segs...)
	return nil
}

func (m *epochMem) EpochSeal(uint64) error { return nil }

func (m *epochMem) EpochCommit(uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	err := m.Mem.WriteAtv(m.staged)
	m.endLocked()
	return err
}

func (m *epochMem) EpochAbort(uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.endLocked()
	return nil
}

func (m *epochMem) EpochEnd(id uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.epoch == id {
		m.endLocked()
	}
}

func (m *epochMem) endLocked() {
	m.epoch = 0
	clear(m.staged)
	m.staged = m.staged[:0]
}
