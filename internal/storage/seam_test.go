package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/datatype"
	"repro/internal/trace"
)

// seamCall is one call as the inner backend saw it.
type seamCall struct {
	name string
	off  int64 // offset, truncate size, displacement, data offset or epoch id
	n    int64 // writeback length
	buf  []byte
	segs []Segment
	exts []Extent
	w    io.Writer
	h    ViewHandle
	typ  *datatype.Type
}

func sameBuf(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// same reports whether two calls carry identical arguments: the same
// values and the very same buffers, not copies of them.
func (c seamCall) same(d seamCall) bool {
	if c.name != d.name || c.off != d.off || c.n != d.n || c.h != d.h || c.typ != d.typ || c.w != d.w ||
		!sameBuf(c.buf, d.buf) || len(c.segs) != len(d.segs) || len(c.exts) != len(d.exts) ||
		(len(c.exts) > 0 && (&c.exts[0] != &d.exts[0] || !slices.Equal(c.exts, d.exts))) {
		return false
	}
	for i := range c.segs {
		if c.segs[i].Off != d.segs[i].Off || !sameBuf(c.segs[i].Buf, d.segs[i].Buf) {
			return false
		}
	}
	return true
}

// seamStore is a Mem with all five extensions that logs every call it
// receives.  A view maps data offsets straight to file offsets; epochs
// are bookkeeping.  With fail set, every fallible call does nothing and
// returns it.
type seamStore struct {
	*Mem
	fail  error
	calls []seamCall
}

func newSeamStore() *seamStore {
	s := &seamStore{Mem: NewMem()}
	if err := s.Mem.Truncate(1 << 12); err != nil {
		panic(err)
	}
	return s
}

func (s *seamStore) log(c seamCall) error {
	s.calls = append(s.calls, c)
	return s.fail
}

// arrived counts the logged calls whose name is one of names.
func (s *seamStore) arrived(names ...string) (n int64) {
	for _, c := range s.calls {
		for _, name := range names {
			if c.name == name {
				n++
			}
		}
	}
	return n
}

func (s *seamStore) ReadAt(p []byte, off int64) (int, error) {
	if err := s.log(seamCall{name: "ReadAt", off: off, buf: p}); err != nil {
		return 3, err
	}
	return s.Mem.ReadAt(p, off)
}

func (s *seamStore) WriteAt(p []byte, off int64) (int, error) {
	if err := s.log(seamCall{name: "WriteAt", off: off, buf: p}); err != nil {
		return 3, err
	}
	return s.Mem.WriteAt(p, off)
}

func (s *seamStore) Size() int64 {
	s.log(seamCall{name: "Size"})
	return s.Mem.Size()
}

func (s *seamStore) Truncate(n int64) error {
	if err := s.log(seamCall{name: "Truncate", off: n}); err != nil {
		return err
	}
	return s.Mem.Truncate(n)
}

func (s *seamStore) Sync() error { return s.log(seamCall{name: "Sync"}) }

func (s *seamStore) StartWriteback(off, n int64) {
	s.log(seamCall{name: "StartWriteback", off: off, n: n})
}

func (s *seamStore) ReadAtv(segs []Segment) error {
	if err := s.log(seamCall{name: "ReadAtv", segs: segs}); err != nil {
		return err
	}
	return s.Mem.ReadAtv(segs)
}

func (s *seamStore) WriteAtv(segs []Segment) error {
	if err := s.log(seamCall{name: "WriteAtv", segs: segs}); err != nil {
		return err
	}
	return s.Mem.WriteAtv(segs)
}

func (s *seamStore) SupportsSend() bool { return true }

// SendTo writes what ReadAtv would read of exts to w.  A failing store
// writes nothing.
func (s *seamStore) SendTo(w io.Writer, exts []Extent) (int64, error) {
	if err := s.log(seamCall{name: "SendTo", exts: exts, w: w}); err != nil {
		return 0, err
	}
	var n int64
	for _, e := range exts {
		p := make([]byte, e.N)
		if err := ReadFull(s.Mem, p, e.Off); err != nil {
			return n, err
		}
		k, err := w.Write(p)
		if n += int64(k); err != nil {
			return n, err
		}
	}
	return n, nil
}

func (s *seamStore) SupportsViews() bool { return true }

func (s *seamStore) RegisterView(disp int64, ftype *datatype.Type) (ViewHandle, error) {
	if err := s.log(seamCall{name: "RegisterView", off: disp, typ: ftype}); err != nil {
		return 0, err
	}
	return 77, nil
}

func (s *seamStore) ViewRead(h ViewHandle, p []byte, d0 int64) error {
	if err := s.log(seamCall{name: "ViewRead", off: d0, buf: p, h: h}); err != nil {
		return err
	}
	return ReadFull(s.Mem, p, d0)
}

func (s *seamStore) ViewWrite(h ViewHandle, p []byte, d0 int64) error {
	if err := s.log(seamCall{name: "ViewWrite", off: d0, buf: p, h: h}); err != nil {
		return err
	}
	_, err := s.Mem.WriteAt(p, d0)
	return err
}

func (s *seamStore) SupportsEpochs() bool { return true }

func (s *seamStore) EpochBegin(id uint64) { s.log(seamCall{name: "EpochBegin", off: int64(id)}) }

func (s *seamStore) EpochSeal(id uint64) error {
	return s.log(seamCall{name: "EpochSeal", off: int64(id)})
}

// EpochSealStamp is the store's seal too, and logs as one; its stamp
// must come back through every wrapper unchanged.
func (s *seamStore) EpochSealStamp(id uint64) (uint64, error) {
	if err := s.log(seamCall{name: "EpochSeal", off: int64(id)}); err != nil {
		return 0, err
	}
	return 99, nil
}

func (s *seamStore) EpochCommit(id uint64) error {
	return s.log(seamCall{name: "EpochCommit", off: int64(id)})
}

func (s *seamStore) EpochAbort(id uint64) error {
	return s.log(seamCall{name: "EpochAbort", off: int64(id)})
}

func (s *seamStore) EpochEnd(id uint64) { s.log(seamCall{name: "EpochEnd", off: int64(id)}) }

// seamBackend is everything a pass-through wrapper implements.
type seamBackend interface {
	Backend
	Sender
	ViewBackend
	EpochBackend
	EpochStamper
	Writeback
}

// seamWrappers builds each of the five wrappers, and Instrumented with a
// tracer, idle (nothing armed, no
// probability set), over b.
var seamWrappers = []struct {
	name string
	wrap func(b Backend) Backend
}{
	{"Resilient", func(b Backend) Backend { return NewResilient(b, ResilientConfig{}) }},
	{"Throttled", func(b Backend) Backend { return NewThrottled(b, 0) }},
	{"Instrumented", func(b Backend) Backend { return NewInstrumented(b) }},
	{"Instrumented/traced", func(b Backend) Backend { return traced(b, trace.NewCollector(64).Storage()) }},
	{"Faulty", func(b Backend) Backend { return NewFaulty(b) }},
	{"Chaos", func(b Backend) Backend { return NewChaos(1, b, ChaosConfig{}) }},
}

// seamOps is every call of the five interfaces.  do issues it on w and
// returns the call the inner backend must see and what w answered.
var seamOps = []struct {
	name string
	do   func(w seamBackend) (want seamCall, n int64, err error)
}{
	{"ReadAt", func(w seamBackend) (seamCall, int64, error) {
		p := make([]byte, 5)
		n, err := w.ReadAt(p, 40)
		return seamCall{name: "ReadAt", off: 40, buf: p}, int64(n), err
	}},
	{"WriteAt", func(w seamBackend) (seamCall, int64, error) {
		p := []byte("hello")
		n, err := w.WriteAt(p, 48)
		return seamCall{name: "WriteAt", off: 48, buf: p}, int64(n), err
	}},
	{"Size", func(w seamBackend) (seamCall, int64, error) {
		return seamCall{name: "Size"}, w.Size(), nil
	}},
	{"Truncate", func(w seamBackend) (seamCall, int64, error) {
		return seamCall{name: "Truncate", off: 1 << 13}, 0, w.Truncate(1 << 13)
	}},
	{"Sync", func(w seamBackend) (seamCall, int64, error) {
		return seamCall{name: "Sync"}, 0, w.Sync()
	}},
	{"StartWriteback", func(w seamBackend) (seamCall, int64, error) {
		w.StartWriteback(4096, 1<<20)
		return seamCall{name: "StartWriteback", off: 4096, n: 1 << 20}, 0, nil
	}},
	{"ReadAtv", func(w seamBackend) (seamCall, int64, error) {
		segs := []Segment{{Off: 64, Buf: make([]byte, 3)}, {Off: 8, Buf: make([]byte, 2)}}
		return seamCall{name: "ReadAtv", segs: segs}, 0, w.ReadAtv(segs)
	}},
	{"WriteAtv", func(w seamBackend) (seamCall, int64, error) {
		segs := []Segment{{Off: 64, Buf: []byte("abc")}, {Off: 8, Buf: []byte("de")}}
		return seamCall{name: "WriteAtv", segs: segs}, 0, w.WriteAtv(segs)
	}},
	{"SendTo", func(w seamBackend) (seamCall, int64, error) {
		var out bytes.Buffer
		exts := []Extent{{Off: 64, N: 3}, {Off: 8, N: 2}}
		n, err := w.SendTo(&out, exts)
		return seamCall{name: "SendTo", exts: exts, w: &out}, n, err
	}},
	{"RegisterView", func(w seamBackend) (seamCall, int64, error) {
		h, err := w.RegisterView(16, datatype.Byte)
		return seamCall{name: "RegisterView", off: 16, typ: datatype.Byte}, int64(h), err
	}},
	{"ViewRead", func(w seamBackend) (seamCall, int64, error) {
		p := make([]byte, 6)
		return seamCall{name: "ViewRead", off: 24, buf: p, h: 9}, 0, w.ViewRead(9, p, 24)
	}},
	{"ViewWrite", func(w seamBackend) (seamCall, int64, error) {
		p := []byte("viewed")
		return seamCall{name: "ViewWrite", off: 32, buf: p, h: 9}, 0, w.ViewWrite(9, p, 32)
	}},
	{"EpochBegin", func(w seamBackend) (seamCall, int64, error) {
		w.EpochBegin(5)
		return seamCall{name: "EpochBegin", off: 5}, 0, nil
	}},
	{"EpochSeal", func(w seamBackend) (seamCall, int64, error) {
		return seamCall{name: "EpochSeal", off: 5}, 0, w.EpochSeal(5)
	}},
	{"EpochSealStamp", func(w seamBackend) (seamCall, int64, error) {
		stamp, err := w.EpochSealStamp(5)
		return seamCall{name: "EpochSeal", off: 5}, int64(stamp), err
	}},
	{"EpochCommit", func(w seamBackend) (seamCall, int64, error) {
		return seamCall{name: "EpochCommit", off: 5}, 0, w.EpochCommit(5)
	}},
	{"EpochAbort", func(w seamBackend) (seamCall, int64, error) {
		return seamCall{name: "EpochAbort", off: 5}, 0, w.EpochAbort(5)
	}},
	{"EpochEnd", func(w seamBackend) (seamCall, int64, error) {
		w.EpochEnd(5)
		return seamCall{name: "EpochEnd", off: 5}, 0, nil
	}},
}

// TestSeamForwardsEveryOp is the seam's contract: through each idle
// wrapper, every call reaches the inner backend exactly once with the
// caller's own arguments, and the inner backend's answer — success or
// error — comes back unchanged.
func TestSeamForwardsEveryOp(t *testing.T) {
	boom := errors.New("boom") // unclassified, so Resilient does not reissue it
	for _, wr := range seamWrappers {
		for _, o := range seamOps {
			for _, fail := range []error{nil, boom} {
				inner := newSeamStore()
				inner.fail = fail
				w, ok := wr.wrap(inner).(seamBackend)
				if !ok {
					t.Fatalf("%s does not implement every extension", wr.name)
				}
				// The bare store's answer to the same call is the oracle.
				bare := newSeamStore()
				bare.fail = fail
				_, wantN, wantErr := o.do(bare)

				want, n, err := o.do(w)
				if got := inner.calls; len(got) != 1 || !got[0].same(want) {
					t.Errorf("%s/%s (fail=%v): inner saw %+v, want exactly %+v", wr.name, o.name, fail, got, want)
				}
				if n != wantN || err != wantErr {
					t.Errorf("%s/%s (fail=%v): answered (%d, %v), bare backend answers (%d, %v)",
						wr.name, o.name, fail, n, err, wantN, wantErr)
				}
			}
		}
	}
}

// TestSeamCapabilitiesMirrorInner: a wrapper has the extensions of the
// backend under it, no more and no fewer, and a view or epoch call over a
// backend without them is refused before the wrapper's interceptor runs —
// it costs no Chaos draw, no Faulty count, no Throttled charge and no
// Instrumented count.
func TestSeamCapabilitiesMirrorInner(t *testing.T) {
	for _, wr := range seamWrappers {
		w := wr.wrap(newSeamStore())
		if _, ok := AsViewBackend(w); !ok {
			t.Errorf("%s over a view backend hides views", wr.name)
		}
		if _, ok := AsEpochBackend(w); !ok {
			t.Errorf("%s over an epoch backend hides epochs", wr.name)
		}
		if _, ok := AsSender(w); !ok {
			t.Errorf("%s over a sender hides sending", wr.name)
		}
		w = wr.wrap(NewMem())
		if _, ok := AsSender(w); ok {
			t.Errorf("%s over plain Mem claims sending", wr.name)
		}
		if _, ok := AsViewBackend(w); ok {
			t.Errorf("%s over plain Mem claims views", wr.name)
		}
		if _, ok := AsEpochBackend(w); ok {
			t.Errorf("%s over plain Mem claims epochs", wr.name)
		}
	}

	// Each wrapper armed so that an op that did reach its interceptor
	// would leave a mark.
	const seed = 11
	chaos := NewChaos(seed, NewMem(), ChaosConfig{
		TransientRead: 1, TransientWrite: 1, permanentRead: 1, permanentWrite: 1, LatencySpike: 1})
	faulty := NewFaulty(NewMem())
	faulty.FailReads(1)
	faulty.FailWrites(1)
	throttled := NewThrottled(NewMem(), time.Nanosecond)
	inst := NewInstrumented(NewMem())
	resilient := NewResilient(NewMem(), ResilientConfig{})
	traced := traced(NewMem(), trace.NewCollector(64).Storage())

	for _, w := range []seamBackend{chaos, faulty, throttled, inst, resilient, traced} {
		p := make([]byte, 4)
		if n, err := w.SendTo(io.Discard, []Extent{{Off: 0, N: 4}}); n != 0 || err != ErrNoSend {
			t.Errorf("%T.SendTo over Mem: (%d, %v), want ErrNoSend", w, n, err)
		}
		if _, err := w.RegisterView(0, datatype.Byte); err != ErrNoViews {
			t.Errorf("%T.RegisterView over Mem: %v, want ErrNoViews", w, err)
		}
		if err := w.ViewRead(1, p, 0); err != ErrNoViews {
			t.Errorf("%T.ViewRead over Mem: %v, want ErrNoViews", w, err)
		}
		if err := w.ViewWrite(1, p, 0); err != ErrNoViews {
			t.Errorf("%T.ViewWrite over Mem: %v, want ErrNoViews", w, err)
		}
		w.EpochBegin(1)
		if err := w.EpochSeal(1); err != ErrNoEpochs {
			t.Errorf("%T.EpochSeal over Mem: %v, want ErrNoEpochs", w, err)
		}
		if _, err := w.EpochSealStamp(1); err != ErrNoEpochs {
			t.Errorf("%T.EpochSealStamp over Mem: %v, want ErrNoEpochs", w, err)
		}
		if err := w.EpochCommit(1); err != ErrNoEpochs {
			t.Errorf("%T.EpochCommit over Mem: %v, want ErrNoEpochs", w, err)
		}
		if err := w.EpochAbort(1); err != ErrNoEpochs {
			t.Errorf("%T.EpochAbort over Mem: %v, want ErrNoEpochs", w, err)
		}
		w.EpochEnd(1)
	}

	if st := chaos.Stats(); st != (ChaosStats{}) {
		t.Errorf("Chaos injected on unsupported calls: %+v", st)
	}
	if got, want := chaos.rng.Int63(), rand.New(rand.NewSource(seed)).Int63(); got != want {
		t.Error("Chaos spent a draw on an unsupported call")
	}
	if faulty.reads.count != 0 || faulty.writes.count != 0 {
		t.Errorf("Faulty counted unsupported calls: %d reads, %d writes", faulty.reads.count, faulty.writes.count)
	}
	if d := throttled.debt.Load(); d != 0 {
		t.Errorf("Throttled charged %dns for unsupported calls", d)
	}
	if st := inst.Stats(); st != (AccessStats{}) {
		t.Errorf("Instrumented counted unsupported calls: %+v", st)
	}
}

// TestSeamSend: through each wrapper a send reaches the store once with
// the caller's extents and writer, sends what ReadAtv reads — zeros past
// the end included — and is one read of its bytes to an Instrumented
// beneath.  Then each failure a wrapper can give it: Faulty's and Chaos's
// faults stop it before the store sees it, a Chaos short read lets a
// prefix out and fails it, and Resilient reissues a send that failed
// before writing and not one that had written.
func TestSeamSend(t *testing.T) {
	exts := []Extent{{Off: 64, N: 3}, {Off: 8, N: 2}, {Off: 1<<12 - 2, N: 4}}
	newInner := func() *seamStore {
		s := newSeamStore()
		if _, err := s.Mem.WriteAt([]byte("0123456789abcdefghijklmnopqrstuvwxyz"), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Mem.WriteAt([]byte("tailbytes!"), 60); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Mem.WriteAt([]byte("YZ"), 1<<12-2); err != nil {
			t.Fatal(err)
		}
		return s
	}
	want := []byte("byt89YZ\x00\x00")
	for _, wr := range seamWrappers {
		inner := newInner()
		in := NewInstrumented(inner)
		w := wr.wrap(in).(Sender)
		var out bytes.Buffer
		n, err := w.SendTo(&out, exts)
		if err != nil || n != int64(len(want)) || !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s: sent (%d, %v) %q, want %d bytes %q", wr.name, n, err, out.Bytes(), len(want), want)
		}
		if got := inner.calls; len(got) != 1 || !got[0].same(seamCall{name: "SendTo", exts: exts, w: &out}) {
			t.Errorf("%s: the store saw %+v, want the send once", wr.name, got)
		}
		if st := in.Stats(); st.Reads != 1 || st.BytesRead != int64(len(want)) || st.Writes != 0 {
			t.Errorf("%s: counted %+v beneath it, want one read of %d bytes", wr.name, st, len(want))
		}
	}

	transient := fmt.Errorf("flaky: %w", ErrTransient)
	for _, tc := range []struct {
		name    string
		wrap    func(inner *seamStore) Sender
		arrived int64 // sends the store saw
		sent    bool  // some bytes went out
		again   bool  // the error is transient
	}{
		{"Faulty", func(s *seamStore) Sender {
			f := NewFaulty(s)
			f.FailReads(1)
			return f
		}, 0, false, false},
		{"Faulty range", func(s *seamStore) Sender {
			f := NewFaulty(s)
			f.FailReadRange(9, 10)
			return f
		}, 0, false, false},
		{"Chaos", func(s *seamStore) Sender {
			return NewChaos(1, s, ChaosConfig{TransientRead: 1})
		}, 0, false, true},
		{"Chaos short", func(s *seamStore) Sender {
			return NewChaos(1, s, ChaosConfig{ShortRead: 1})
		}, 1, true, true},
		{"Resilient over a short send", func(s *seamStore) Sender {
			c := NewChaos(1, s, ChaosConfig{ShortRead: 1})
			r := NewResilient(c, ResilientConfig{})
			r.sleep = func(time.Duration) {}
			return r
		}, 1, true, true},
		{"Instrumented/traced over a failing store", func(s *seamStore) Sender {
			s.fail = transient
			return traced(s, trace.NewCollector(64).Storage())
		}, 1, false, true},
	} {
		inner := newInner()
		var out bytes.Buffer
		n, err := tc.wrap(inner).SendTo(&out, exts)
		if err == nil || IsTransient(err) != tc.again {
			t.Errorf("%s: err %v, want a failure (transient %t)", tc.name, err, tc.again)
		}
		if got := inner.arrived("SendTo"); got != tc.arrived {
			t.Errorf("%s: the store saw %d sends, want %d", tc.name, got, tc.arrived)
		}
		if n != int64(out.Len()) || (n > 0) != tc.sent || !bytes.HasPrefix(want, out.Bytes()) {
			t.Errorf("%s: reported %d bytes, wrote %q; want a prefix of %q (any: %t)", tc.name, n, out.Bytes(), want, tc.sent)
		}
	}

	// Resilient reissues a send that wrote nothing.
	inner := newInner()
	inner.fail = transient
	r := NewResilient(inner, ResilientConfig{MaxRetries: 2})
	r.sleep = func(time.Duration) {}
	if _, err := r.SendTo(io.Discard, exts); !IsTransient(err) || inner.arrived("SendTo") != 3 {
		t.Errorf("Resilient over a send failing before any byte: %v after %d sends, want 3", err, inner.arrived("SendTo"))
	}
}

// TestSeamWritebackIsNoOp: the early-writeback hint passes every
// wrapper unchanged and costs none of them anything, armed as each is so
// that an op that reached its interceptor would leave a mark — no Chaos
// draw, no Faulty count, no Throttled charge, no Instrumented count, no
// Instrumented span, no Resilient retry — and over a backend without the
// extension it reaches nothing.
func TestSeamWritebackIsNoOp(t *testing.T) {
	const seed = 11
	for _, tc := range []struct {
		name string
		wrap func(b Backend) (Backend, func() string)
	}{
		{"Resilient", func(b Backend) (Backend, func() string) {
			r := NewResilient(b, ResilientConfig{Seed: seed})
			return r, func() string {
				if n, _ := r.RetryStats(); n != 0 || r.rng.Int63() != rand.New(rand.NewSource(seed)).Int63() {
					return "a retry or a jitter draw"
				}
				return ""
			}
		}},
		{"Instrumented/traced", func(b Backend) (Backend, func() string) {
			c := trace.NewCollector(64)
			return traced(b, c.Storage()), func() string {
				if evs := c.Events(); len(evs) != 0 {
					return fmt.Sprintf("spans %v", evs)
				}
				return ""
			}
		}},
		{"Throttled", func(b Backend) (Backend, func() string) {
			th := NewThrottled(b, time.Nanosecond)
			return th, func() string {
				if d := th.debt.Load(); d != 0 {
					return fmt.Sprintf("a %dns charge", d)
				}
				return ""
			}
		}},
		{"Instrumented", func(b Backend) (Backend, func() string) {
			in := NewInstrumented(b)
			return in, func() string {
				if st := in.Stats(); st != (AccessStats{}) {
					return fmt.Sprintf("counts %+v", st)
				}
				return ""
			}
		}},
		{"Faulty", func(b Backend) (Backend, func() string) {
			f := NewFaulty(b)
			f.FailReads(1)
			f.FailWrites(1)
			return f, func() string {
				if f.reads.count != 0 || f.writes.count != 0 {
					return fmt.Sprintf("%d reads and %d writes counted", f.reads.count, f.writes.count)
				}
				return ""
			}
		}},
		{"Chaos", func(b Backend) (Backend, func() string) {
			c := NewChaos(seed, b, ChaosConfig{TransientRead: 1, TransientWrite: 1, permanentRead: 1, permanentWrite: 1, LatencySpike: 1})
			return c, func() string {
				if st := c.Stats(); st != (ChaosStats{}) || c.rng.Int63() != rand.New(rand.NewSource(seed)).Int63() {
					return fmt.Sprintf("a draw or an injection %+v", st)
				}
				return ""
			}
		}},
	} {
		inner := newSeamStore()
		w, spent := tc.wrap(inner)
		w.(Writeback).StartWriteback(12, 34)
		if want := (seamCall{name: "StartWriteback", off: 12, n: 34}); len(inner.calls) != 1 || !inner.calls[0].same(want) {
			t.Errorf("%s: inner saw %+v, want exactly %+v", tc.name, inner.calls, want)
		}
		if mark := spent(); mark != "" {
			t.Errorf("%s: the hint cost %s", tc.name, mark)
		}
		w, spent = tc.wrap(NewMem())
		w.(Writeback).StartWriteback(12, 34)
		if mark := spent(); mark != "" {
			t.Errorf("%s over Mem: the hint cost %s", tc.name, mark)
		}
	}
}

// TestSeamInstrumentedCountsViews: a view transfer is one read or write
// of len(p) bytes; a failed one, like a failed batch, counts no bytes.
func TestSeamInstrumentedCountsViews(t *testing.T) {
	inner := newSeamStore()
	in := NewInstrumented(inner)
	p := []byte("0123456")
	if err := in.ViewWrite(1, p, 0); err != nil {
		t.Fatal(err)
	}
	if err := in.ViewRead(1, p[:4], 0); err != nil {
		t.Fatal(err)
	}
	inner.fail = errors.New("boom")
	if err := in.ViewWrite(1, p, 0); err == nil {
		t.Fatal("failing store: ViewWrite succeeded")
	}
	if err := in.WriteAtv([]Segment{{Off: 0, Buf: p}}); err == nil {
		t.Fatal("failing store: WriteAtv succeeded")
	}
	st := in.Stats()
	if st.Reads != 1 || st.BytesRead != 4 || st.Writes != 3 || st.BytesWritten != 7 {
		t.Errorf("stats = %+v, want 1 read of 4 bytes, 3 writes of 7 bytes", st)
	}
}

// TestSeamFullStackTransparent: all five wrappers on top of each other,
// with seeded transient chaos in the middle, are byte-identical to the
// bare backend over plain, vectored and view traffic and a seal/commit —
// and Instrumented, at the bottom, counts exactly the calls that arrived.
func TestSeamFullStackTransparent(t *testing.T) {
	inner, bare := newSeamStore(), newSeamStore()
	faulty := NewFaulty(inner)
	inst := NewInstrumented(faulty)
	chaos := NewChaos(3, NewThrottled(inst, 0), TransientOnly())
	chaos.sleep = func(time.Duration) {}
	res := NewResilient(chaos, ResilientConfig{Seed: 4, MaxRetries: 64})
	res.sleep = func(time.Duration) {}
	var top seamBackend = traced(res, trace.NewCollector(1<<12).Storage())

	if _, ok := AsViewBackend(top); !ok {
		t.Fatal("the stack hides views")
	}
	if _, ok := AsEpochBackend(top); !ok {
		t.Fatal("the stack hides epochs")
	}
	var readBack [2][]byte // everything each side's reads returned, in order
	for side, b := range []seamBackend{top, bare} {
		h, err := b.RegisterView(0, datatype.Byte)
		if err != nil || h != 77 {
			t.Fatalf("RegisterView = %d, %v", h, err)
		}
		b.EpochBegin(1)
		for i := 0; i < 200; i++ {
			off := int64((i * 53) % 3000)
			data := bytes.Repeat([]byte{byte(i + 1)}, 1+i%48)
			back, back2 := make([]byte, len(data)), make([]byte, 7)
			var err error
			switch i % 6 {
			case 0:
				_, err = b.WriteAt(data, off)
			case 1:
				err = b.WriteAtv([]Segment{{Off: off, Buf: data}, {Off: off + 64, Buf: data}})
			case 2:
				err = b.ViewWrite(h, data, off)
			case 3:
				_, err = b.ReadAt(back, off)
			case 4:
				err = b.ReadAtv([]Segment{{Off: off, Buf: back}, {Off: off + 64, Buf: back2}})
			case 5:
				err = b.ViewRead(h, back, off)
			}
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			readBack[side] = append(append(readBack[side], back...), back2...)
		}
		if err := b.EpochSeal(1); err != nil {
			t.Fatal(err)
		}
		if err := b.EpochCommit(1); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(readBack[0], readBack[1]) {
		t.Error("reads through the stack differ from the bare backend's")
	}
	if !bytes.Equal(memBytes(inner.Mem), memBytes(bare.Mem)) {
		t.Error("contents under the stack differ from the bare backend's")
	}
	for _, name := range []string{"RegisterView", "EpochBegin", "EpochSeal", "EpochCommit"} {
		if inner.arrived(name) != 1 {
			t.Errorf("%s arrived %d times under the stack, want 1", name, inner.arrived(name))
		}
	}
	if s := chaos.Stats(); s.Transients+s.ShortReads+s.TornWrites+s.Permanents == 0 {
		t.Error("the chaos layer injected nothing: the test exercised no retry")
	}
	st := inst.Stats()
	if r, w := inner.arrived("ReadAt", "ReadAtv", "ViewRead"), inner.arrived("WriteAt", "WriteAtv", "ViewWrite"); st.Reads != r || st.Writes != w {
		t.Errorf("Instrumented counted %d reads, %d writes; %d and %d arrived", st.Reads, st.Writes, r, w)
	}
}

// TestSeamIdleWrappersAllocateNothing: a call through a wrapper with no
// fault firing costs no allocation — the op travels by value.
func TestSeamIdleWrappersAllocateNothing(t *testing.T) {
	for _, wr := range seamWrappers {
		mem := NewMem()
		if err := mem.Truncate(1 << 12); err != nil {
			t.Fatal(err)
		}
		w := wr.wrap(mem).(seamBackend)
		p := make([]byte, 64)
		segs := []Segment{{Off: 0, Buf: p[:32]}, {Off: 128, Buf: p[32:]}}
		calls := map[string]func(){
			"ReadAt":   func() { w.ReadAt(p, 16) },
			"WriteAt":  func() { w.WriteAt(p, 16) },
			"ReadAtv":  func() { w.ReadAtv(segs) },
			"WriteAtv": func() { w.WriteAtv(segs) },
		}
		for name, call := range calls {
			if n := testing.AllocsPerRun(100, call); n != 0 {
				t.Errorf("%s.%s: %v allocations per call, want 0", wr.name, name, n)
			}
		}
	}
}
