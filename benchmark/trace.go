package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datatype"
	"repro/internal/storage"
)

// The benchmark's own spans.  They wrap the calls the benchmark makes
// into a layer (and, through spanBackend, the calls core makes into the
// storage layer); spans inside the program are a later change.  A nil
// *recorder records nothing, which is how the end-to-end pass runs.

// span is one recorded interval.  Spans of one op share its op id; Parent
// is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	// opSpan and opID name rank 0's op in flight, the parent that
	// spanBackend attributes storage calls to.
	opSpan, opID atomic.Int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (r *recorder) begin(name string, parent, op int64, rank int) int64 {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Rank: rank, Start: now})
	return id
}

func (r *recorder) end(id int64) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// durations returns the lengths, in nanoseconds, of rank's spans named
// name whose op id is at least minOp.
func (r *recorder) durations(name string, rank int, minOp int64) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.Rank == rank && s.Op >= minOp {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which chrome://tracing and ui.perfetto.dev open directly.
type chromeEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	Ts   float64          `json:"ts"` // microseconds
	Dur  float64          `json:"dur"`
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	Args map[string]int64 `json:"args"`
}

// write stores the spans as a Chrome trace: one track per rank, the
// span's id, parent and op id in its args.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	events := make([]chromeEvent, len(r.spans))
	for i, s := range r.spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Rank,
			Args: map[string]int64{"id": s.ID, "parent": s.Parent, "op": s.Op},
		}
	}
	r.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// storageRank is the track storage spans are drawn on: the backend is
// shared by the ranks and does not know which one called it.
const storageRank = ranks

// spanBackend sits between core and the backend in the traced pass,
// records one span per backend call and sums their time.  It forwards
// the vectored, registered-view and epoch extensions, which
// storage.Instrumented does not, so the tier workloads keep the paths
// they are meant to measure.
type spanBackend struct {
	storage.Backend
	rec    *recorder
	busyNs atomic.Int64
}

func (b *spanBackend) call(name string, fn func()) {
	id := b.rec.begin(name, b.rec.opSpan.Load(), b.rec.opID.Load(), storageRank)
	t0 := time.Now()
	fn()
	b.busyNs.Add(time.Since(t0).Nanoseconds())
	b.rec.end(id)
}

func (b *spanBackend) ReadAt(p []byte, off int64) (n int, err error) {
	b.call("storage.read", func() { n, err = b.Backend.ReadAt(p, off) })
	return n, err
}

func (b *spanBackend) WriteAt(p []byte, off int64) (n int, err error) {
	b.call("storage.write", func() { n, err = b.Backend.WriteAt(p, off) })
	return n, err
}

func (b *spanBackend) Sync() (err error) {
	b.call("storage.sync", func() { err = b.Backend.Sync() })
	return err
}

func (b *spanBackend) ReadAtv(segs []storage.Segment) (err error) {
	b.call("storage.readv", func() { err = storage.ReadAtv(b.Backend, segs) })
	return err
}

func (b *spanBackend) WriteAtv(segs []storage.Segment) (err error) {
	b.call("storage.writev", func() { err = storage.WriteAtv(b.Backend, segs) })
	return err
}

func (b *spanBackend) views() storage.ViewBackend {
	vb, _ := storage.AsViewBackend(b.Backend)
	return vb
}

func (b *spanBackend) SupportsViews() bool { return b.views() != nil }

func (b *spanBackend) RegisterView(disp int64, ftype *datatype.Type) (h storage.ViewHandle, err error) {
	b.call("storage.register_view", func() { h, err = b.views().RegisterView(disp, ftype) })
	return h, err
}

func (b *spanBackend) ViewRead(h storage.ViewHandle, p []byte, d0 int64) (err error) {
	b.call("storage.view_read", func() { err = b.views().ViewRead(h, p, d0) })
	return err
}

func (b *spanBackend) ViewWrite(h storage.ViewHandle, p []byte, d0 int64) (err error) {
	b.call("storage.view_write", func() { err = b.views().ViewWrite(h, p, d0) })
	return err
}

func (b *spanBackend) epochs() storage.EpochBackend {
	eb, _ := storage.AsEpochBackend(b.Backend)
	return eb
}

func (b *spanBackend) SupportsEpochs() bool { return b.epochs() != nil }

func (b *spanBackend) EpochBegin(id uint64) { b.epochs().EpochBegin(id) }
func (b *spanBackend) EpochEnd(id uint64)   { b.epochs().EpochEnd(id) }

func (b *spanBackend) EpochSeal(id uint64) (err error) {
	b.call("storage.epoch_seal", func() { err = b.epochs().EpochSeal(id) })
	return err
}

func (b *spanBackend) EpochCommit(id uint64) (err error) {
	b.call("storage.epoch_commit", func() { err = b.epochs().EpochCommit(id) })
	return err
}

func (b *spanBackend) EpochAbort(id uint64) (err error) {
	b.call("storage.epoch_abort", func() { err = b.epochs().EpochAbort(id) })
	return err
}
