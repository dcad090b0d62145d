package ioserver

import (
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/datatype"
	"repro/internal/storage"
)

// Striped aggregates one Client per I/O server into the storage.Backend
// the ranks mount, the file laid round-robin over the servers' stripes
// in units of storage.StripeGeom.  Every raw access — a scalar call is
// a batch of one segment — fans out concurrently as one offset list per
// server it touches; registered views go through storage.ViewBackend,
// so core's sparse direct path sends constant-size requests instead of
// offset lists and the servers evaluate the noncontiguous pattern
// against their own stripes.
type Striped struct {
	clients []*Client
	geom    storage.StripeGeom

	mu     sync.Mutex
	views  map[storage.ViewHandle]*aggView
	nextID storage.ViewHandle
}

// aggView is one registered view: the shared wire form plus the decoded
// tree for the client-side partition.
type aggView struct {
	v *View
	t *datatype.Type
}

// NewStriped mounts the servers at addrs as one striped backend with
// the given stripe unit.  Server i must be configured with
// {Geom: {unit, len(addrs)}, Index: i} — the layouts have to agree.
func NewStriped(unit int64, addrs []string, opts ClientOptions) (*Striped, error) {
	g := storage.StripeGeom{Unit: unit, Count: len(addrs)}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	clients := make([]*Client, len(addrs))
	for i, a := range addrs {
		clients[i] = NewClient(a, opts)
	}
	return &Striped{
		clients: clients,
		geom:    g,
		views:   make(map[storage.ViewHandle]*aggView),
	}, nil
}

// Clients exposes the per-server clients (stats, tests).
func (s *Striped) Clients() []*Client { return s.clients }

// Rounds sums the request round-trips of every client.
func (s *Striped) Rounds() int64 {
	var n int64
	for _, c := range s.clients {
		n += c.Rounds()
	}
	return n
}

// ServerStats aggregates the request counters of every server.
func (s *Striped) ServerStats() (ServerStats, error) {
	var total ServerStats
	for _, c := range s.clients {
		st, err := c.ServerStats()
		if err != nil {
			return total, err
		}
		total.add(st)
	}
	return total, nil
}

// Close tears down every client connection.
func (s *Striped) Close() error {
	var first error
	for _, c := range s.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ReadAt implements io.ReaderAt: the range, clipped to the logical
// size, is a ReadAtv of one segment.  Past the end the count comes back
// short with io.EOF.
func (s *Striped) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("ioserver: negative offset %d: %w", off, storage.ErrPermanent)
	}
	size := s.Size()
	if off >= size {
		return 0, io.EOF
	}
	n := min(int64(len(p)), size-off)
	if err := s.ReadAtv([]storage.Segment{{Off: off, Buf: p[:n]}}); err != nil {
		return 0, err
	}
	if n < int64(len(p)) {
		return int(n), io.EOF
	}
	return int(n), nil
}

// WriteAt implements io.WriterAt as a WriteAtv of one segment.
func (s *Striped) WriteAt(p []byte, off int64) (int, error) {
	if err := s.WriteAtv([]storage.Segment{{Off: off, Buf: p}}); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Size reports the logical size: the furthest global offset any server's
// stripe reaches, the servers asked concurrently.
func (s *Striped) Size() int64 {
	lens := make([]int64, len(s.clients))
	s.fanOut(nil, func(i int) error {
		lens[i] = s.geom.GlobalLen(s.clients[i].Size(), i)
		return nil
	})
	return slices.Max(lens)
}

// Truncate sizes every server's stripe to its share of n bytes.
func (s *Striped) Truncate(n int64) error {
	if n < 0 {
		return fmt.Errorf("ioserver: negative truncate %d: %w", n, storage.ErrPermanent)
	}
	return s.fanOut(nil, func(i int) error { return s.clients[i].Truncate(s.geom.LocalLen(n, i)) })
}

// Sync flushes every server's stripe.
func (s *Striped) Sync() error {
	return s.fanOut(nil, func(i int) error { return s.clients[i].Sync() })
}

// fanOut runs fn for every server, or, given idle, for every server that
// is not, concurrently, and reports the first failure.
func (s *Striped) fanOut(idle func(i int) bool, fn func(i int) error) error {
	errs := make([]error, len(s.clients))
	var wg sync.WaitGroup
	for i := range s.clients {
		if idle != nil && idle(i) {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ReadAtv and WriteAtv implement storage.Backend: the global batch is
// regrouped per server with the shared stripe math and the per-server
// offset lists are issued concurrently.
func (s *Striped) ReadAtv(segs []storage.Segment) error {
	return s.vectored(segs, (*Client).ReadAtv)
}

func (s *Striped) WriteAtv(segs []storage.Segment) error {
	return s.vectored(segs, (*Client).WriteAtv)
}

func (s *Striped) vectored(segs []storage.Segment, call func(*Client, []storage.Segment) error) error {
	bySrv, err := storage.SplitSegs(s.geom, segs)
	if err != nil {
		return err
	}
	return s.fanOut(func(i int) bool { return len(bySrv[i]) == 0 },
		func(i int) error { return call(s.clients[i], bySrv[i]) })
}

// SupportsViews implements storage.ViewBackend.
func (s *Striped) SupportsViews() bool { return true }

// RegisterView implements storage.ViewBackend: a view SetView would
// refuse is refused before any request leaves; any other is encoded once
// and registered eagerly with every server, so a bad view fails SetView
// rather than the first access, and the servers' caches are primed
// before the access stream starts.
func (s *Striped) RegisterView(disp int64, ftype *datatype.Type) (storage.ViewHandle, error) {
	if err := checkView(disp, ftype); err != nil {
		return 0, fmt.Errorf("ioserver: %w: %w", err, storage.ErrPermanent)
	}
	av := &aggView{v: &View{Disp: disp, Enc: datatype.Encode(ftype)}, t: ftype}
	err := s.fanOut(nil, func(i int) error { return s.clients[i].RegisterEager(av.v) })
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	s.views[s.nextID] = av
	return s.nextID, nil
}

// lookup resolves an aggregate view handle.
func (s *Striped) lookup(h storage.ViewHandle) (*aggView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	av, ok := s.views[h]
	if !ok {
		return nil, fmt.Errorf("ioserver: unknown view handle %d: %w", h, storage.ErrPermanent)
	}
	return av, nil
}

// ViewRead implements storage.ViewBackend: one constant-size request
// per owning server, issued concurrently; each response is that server's
// byte stream in data order, read straight into the pieces of p the
// partition gives its stripe — the servers cut the range the same way.
func (s *Striped) ViewRead(h storage.ViewHandle, p []byte, d0 int64) error {
	av, err := s.lookup(h)
	if err != nil {
		return err
	}
	d1 := d0 + int64(len(p))
	shares, lens, err := av.partition(s.geom, p, d0)
	if err != nil {
		return err
	}
	return s.fanOut(func(i int) bool { return lens[i] == 0 },
		func(i int) error {
			c := s.clients[i]
			n, err := c.ViewReadRange(av.v, d0, d1, shares[i])
			if err == nil && n != lens[i] {
				err = fmt.Errorf("ioserver %s: view read returned %d bytes, stripe owns %d: %w",
					c.Addr(), n, lens[i], storage.ErrPermanent)
			}
			return err
		})
}

// ViewWrite implements storage.ViewBackend: each owning server's share of
// p, in data order, is the pieces of p the partition gives its stripe, and
// they go out from p itself, one request per server, concurrently.
func (s *Striped) ViewWrite(h storage.ViewHandle, p []byte, d0 int64) error {
	av, err := s.lookup(h)
	if err != nil {
		return err
	}
	d1 := d0 + int64(len(p))
	shares, lens, err := av.partition(s.geom, p, d0)
	if err != nil {
		return err
	}
	return s.fanOut(func(i int) bool { return lens[i] == 0 },
		func(i int) error {
			return s.clients[i].ViewWriteRange(av.v, d0, d1, shares[i])
		})
}

// Epoch commit protocol: the aggregate implements storage.EpochBackend
// by fanning out to every server's client.  Begin/End are local
// bookkeeping (idempotent, every rank of a shared world calls them);
// Seal is every rank's pre-commit liveness check; Commit — issued by
// exactly one rank — applies the epoch on every server, and a commit
// against a restarted server surfaces storage.ErrEpochRetry for the
// driver's re-seal loop.

// SupportsEpochs implements storage.EpochBackend.
func (s *Striped) SupportsEpochs() bool { return true }

// EpochBegin implements storage.EpochBackend.
func (s *Striped) EpochBegin(id uint64) {
	for _, c := range s.clients {
		c.BeginEpoch(id)
	}
}

// EpochSeal implements storage.EpochBackend: every client confirms its
// server holds exactly what this mount staged (the server tallies per
// connection, so a mount that staged nothing seals a zero tally).
func (s *Striped) EpochSeal(id uint64) error {
	_, err := s.EpochSealStamp(id)
	return err
}

// EpochSealStamp implements storage.EpochStamper: it seals as EpochSeal
// does, and its stamp is a hash of the incarnation of every server, in
// server order, that the seals passed against — the incarnations a
// commit through this mount names.  The ranks of a world sharing the
// mount seal its clients concurrently, and read what the last seal of
// each passed against: one shared stage log, replayed by any of them.
func (s *Striped) EpochSealStamp(id uint64) (uint64, error) {
	if err := s.fanOut(nil, func(i int) error { return s.clients[i].SealEpoch(id) }); err != nil {
		return 0, err
	}
	stamp := uint64(14695981039346656037) // FNV-1a's offset basis and prime, a word at a time
	for _, c := range s.clients {
		stamp = (stamp ^ uint64(c.sealed())) * 1099511628211
	}
	return stamp, nil
}

// EpochCommit implements storage.EpochBackend.  The commit applies the
// segments staged by every connection to that server.  Commit is
// idempotent per server, so a partial fan-out failure retried by the
// driver converges: already-committed servers acknowledge, the rest
// apply.
func (s *Striped) EpochCommit(id uint64) error {
	return s.fanOut(nil, func(i int) error { return s.clients[i].CommitEpoch(id) })
}

// EpochAbort implements storage.EpochBackend: the servers discard the
// epoch's staged state.
func (s *Striped) EpochAbort(id uint64) error {
	return s.fanOut(nil, func(i int) error { return s.clients[i].AbortEpoch(id) })
}

// EpochEnd implements storage.EpochBackend.
func (s *Striped) EpochEnd(id uint64) {
	for _, c := range s.clients {
		c.EndEpoch(id)
	}
}
