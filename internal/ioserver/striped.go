package ioserver

import (
	"fmt"
	"sync"

	"repro/internal/datatype"
	"repro/internal/storage"
)

// Striped aggregates one Client per I/O server into the storage.Backend
// the ranks mount: the network-tier generalization of storage.Striped.
// Scalar and metadata operations reuse the in-process Striped logic
// over the clients; vectored batches fan out concurrently (one offset
// list per server); registered views go through storage.ViewBackend, so
// core's sparse direct path sends constant-size requests instead of
// offset lists and the servers evaluate the noncontiguous pattern
// against their own stripes.
type Striped struct {
	clients []*Client
	geom    storage.StripeGeom
	local   *storage.Striped // scalar/metadata ops over the clients

	mu     sync.Mutex
	views  map[storage.ViewHandle]*aggView
	nextID storage.ViewHandle
}

// aggView is one registered view: the shared wire form plus the decoded
// tree for the client-side partition, and which of its two cuts applies.
type aggView struct {
	v         *View
	t         *datatype.Type
	navigable bool
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
	backends := make([]storage.Backend, len(addrs))
	for i, a := range addrs {
		clients[i] = NewClient(a, opts)
		backends[i] = clients[i]
	}
	local, err := storage.NewStriped(unit, backends...)
	if err != nil {
		return nil, err
	}
	return &Striped{
		clients: clients,
		geom:    g,
		local:   local,
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

// Scalar Backend operations delegate to the in-process Striped over the
// clients: one request per stripe unit, in sequence, and a read asks
// every server for its size first.  They are the metadata path and a
// fallback; the collective's windows do not take them.  A buffered IOP
// window reaches the tier as a one-segment WriteAtv or ReadAtv, as a
// direct window's batch does, and so crosses as one vectored request per
// server, sent concurrently: on the benchmark's tier64 workload 19 round
// trips per op where scalar calls cost 139.

func (s *Striped) ReadAt(p []byte, off int64) (int, error)  { return s.local.ReadAt(p, off) }
func (s *Striped) WriteAt(p []byte, off int64) (int, error) { return s.local.WriteAt(p, off) }
func (s *Striped) Size() int64                              { return s.local.Size() }
func (s *Striped) Truncate(n int64) error                   { return s.local.Truncate(n) }
func (s *Striped) Sync() error                              { return s.local.Sync() }

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

// ReadAtv and WriteAtv implement storage.Vectored: the global batch is
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

// RegisterView implements storage.ViewBackend: the filetype is encoded
// once and registered eagerly with every server, so a bad view fails
// SetView rather than the first access, and the servers' caches are
// primed before the access stream starts.
func (s *Striped) RegisterView(disp int64, ftype *datatype.Type) (storage.ViewHandle, error) {
	if disp < 0 {
		return 0, fmt.Errorf("ioserver: negative displacement %d: %w", disp, storage.ErrPermanent)
	}
	av := &aggView{v: &View{Disp: disp, Enc: datatype.Encode(ftype)}, t: ftype, navigable: navigable(ftype, disp)}
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

// ViewWrite implements storage.ViewBackend: p is gathered into one
// data-order byte stream per owning server, straight into its request,
// and the requests are shipped concurrently.
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
			return s.clients[i].ViewWriteRange(av.v, d0, d1, lens[i], func(dst []byte) {
				for _, b := range shares[i] {
					dst = dst[copy(dst, b):]
				}
			})
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
	return s.fanOut(nil, func(i int) error { return s.clients[i].SealEpoch(id) })
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
