// Package core implements the MPI-IO layer of the reproduction: files
// with fileviews (displacement + etype + filetype), independent and
// collective read/write of possibly non-contiguous data, data sieving and
// two-phase collective I/O — with two interchangeable datatype engines
// behind the accessEngine interface (engine.go):
//
//   - ListBased: the ROMIO-style baseline.  Filetypes and memtypes are
//     explicitly flattened into ol-lists of ⟨offset,length⟩ tuples;
//     positioning traverses the lists linearly; copies are performed per
//     tuple; every collective access makes each access process (AP) build
//     and transmit an ol-list of its accesses for each I/O process (IOP)
//     whose file domain it touches (paper §2).  See engine_list.go.
//
//   - Listless: the paper's contribution (§3).  No ol-lists exist:
//     pack/unpack and positioning use flattening-on-the-fly
//     (internal/fotf); each process's fileview is exchanged once, as a
//     compact encoded tree, when the view is set (fileview caching); and
//     collective writes skip the read-modify-write pre-read when the
//     combined fileviews cover the written range (the mergeview
//     optimization, decided by views proved disjoint at SetView and each
//     window's exact sum).  See engine_listless.go and disjoint.go.
//
// Both engines produce byte-identical files; only their cost profiles
// differ.  Per-file Stats expose the differences (tuples built, list
// bytes exchanged, pre-reads skipped, per-phase times, ...).
package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/pool"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Engine selects the datatype-handling implementation.
type Engine int

// The two engines.
const (
	Listless  Engine = iota // flattening-on-the-fly (the paper's technique)
	ListBased               // explicit ol-lists (ROMIO-style baseline)
)

func (e Engine) String() string {
	if e == ListBased {
		return "list-based"
	}
	return "listless"
}

// ErrCorruptAccessList is wrapped by errors returned when a received
// collective access-list payload is truncated or malformed.
var ErrCorruptAccessList = errors.New("core: corrupt access list")

// Options configure an open file.
type Options struct {
	// Engine selects list-based or listless datatype handling.
	Engine Engine
	// SieveDensity is the paper's §5 outlook item, "the decision on the
	// trade-off between data sieving and multiple file accesses":
	// independent non-contiguous accesses whose useful-data fraction in
	// the accessed file range falls below this threshold are performed
	// as one direct backend access per contiguous block instead of via
	// sieve-buffer read-modify-write.  0 disables the heuristic (always
	// sieve, ROMIO's default behaviour).
	SieveDensity float64
	// Trace, when non-nil, records per-rank spans of every access phase
	// (plan, exchange, window storage I/O, copies) into the collector;
	// nil disables tracing at the cost of one pointer check per site.
	Trace *trace.Collector

	// The buffer sizes and the pool are this package's tests' seams:
	// zero selects the default size, and nil pool.Global.  The tests
	// shrink the sizes so that small accesses span several windows, and
	// install a pool.NewChecked() to catch double-put and use-after-put.
	sieveBufSize int // independent data sieving's file buffer
	packBufSize  int // the intermediate pack buffer (Figure 3's p)
	collBufSize  int // two-phase collective I/O's per-window file buffer
	pool         *pool.Pool
}

func (o *Options) fill() {
	if o.sieveBufSize <= 0 {
		o.sieveBufSize = 512 << 10
	}
	if o.packBufSize <= 0 {
		o.packBufSize = 256 << 10
	}
	if o.collBufSize <= 0 {
		o.collBufSize = 1 << 20
	}
	if o.pool == nil {
		o.pool = pool.Global
	}
}

// Shared is the per-world state of one file: the storage backend plus
// the byte-range lock table used by independent data-sieving writes.
// Every rank passes the same *Shared to Open.
type Shared struct {
	b     storage.Backend
	locks *storage.LockTable

	// epochMu/epochHi track the highest epoch id any handle on this
	// world has used, so sequentially opened handles never reuse ids
	// (uncommitted leftovers of a dead handle must not alias a live
	// epoch).
	epochMu sync.Mutex
	epochHi uint64
}

// NewShared wraps a backend for opening from multiple ranks.
func NewShared(b storage.Backend) *Shared {
	return &Shared{b: b, locks: storage.NewLockTable()}
}

// epochMark reports the current epoch high-water mark, the base a newly
// opened handle allocates its epoch ids above.  Every rank opens handles
// in the same order, so the marks agree across the world.
func (s *Shared) epochMark() uint64 {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	return s.epochHi
}

// noteEpoch raises the epoch high-water mark.
func (s *Shared) noteEpoch(id uint64) {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	if id > s.epochHi {
		s.epochHi = id
	}
}

// view is one process's fileview in engine-neutral form; the engines
// keep their own representations (ol-list view, cached remote views).
type view struct {
	disp  int64
	etype *datatype.Type
	ftype *datatype.Type

	esize int64
	fsize int64 // data bytes per filetype instance
	fext  int64 // filetype extent
}

// File is one rank's handle on a shared file.  All collective methods
// (Open, SetView, ReadAtAll, WriteAtAll, Close) must be called by every
// rank of the world in the same order.
type File struct {
	p    *mpi.Proc
	sh   *Shared
	opts Options
	tr   *trace.Tracer // this rank's span recorder; nil when tracing is off
	bp   *pool.Pool    // buffer pool: Options.pool, else pool.Global; never nil

	v   view
	eng accessEngine

	// viewBE/viewHandle are set when the backend accepts registered
	// views and the current fileview is registered with it; the sparse
	// direct path then addresses accesses in view-data bytes instead of
	// shipping offset lists.
	viewBE     storage.ViewBackend
	viewHandle storage.ViewHandle

	// epochBE is set when the backend supports the epoch commit
	// protocol: collective writes then stage under an epoch id and commit
	// via epochFinish.  Ids run from epochBase (the world's high-water
	// mark at Open) in lockstep across ranks.
	epochBE   storage.EpochBackend
	epochBase uint64
	epochSeq  uint64

	// segs is the owner mover's offset-list batch (moveOwn), which sb
	// builds, kept across accesses and cleared after each call, so that
	// it pins neither user nor pooled memory.
	segs []storage.Segment
	sb   segBuilder
	// kept holds the window buffers and pack buffers a collective write
	// staged under its epoch, which lends them to the backend until the
	// epoch ends (collective_window.go); empty between collectives.
	kept [][]byte
	// held lists the direct shares of a collective read the owner mover
	// read into pack buffers for a destination whose bytes may meet,
	// which apExchange unpacks in data order (apState.moveDirect), kept
	// like segs and emptied when the read ends (dropHeld).
	held []heldShare

	// Stats accumulates the work counters of this handle.
	Stats Stats
}

// Open opens the shared backend collectively and installs the trivial
// byte view (disp 0, etype and filetype Byte).
func Open(p *mpi.Proc, sh *Shared, opts Options) (*File, error) {
	opts.fill()
	f := &File{
		p:    p,
		sh:   sh,
		opts: opts,
		tr:   opts.Trace.Tracer(p.Rank()),
		bp:   opts.pool,
	}
	if eb, ok := storage.AsEpochBackend(sh.b); ok {
		f.epochBE = eb
		f.epochBase = sh.epochMark()
	}
	f.sb.onRuns, f.sb.onPiece = f.sb.addRuns, f.sb.add
	f.eng = newEngine(f)
	if err := f.SetView(0, datatype.Byte, datatype.Byte); err != nil {
		return nil, err
	}
	return f, nil
}

// Close releases the handle collectively and flushes the backend.
func (f *File) Close() error {
	f.p.Barrier()
	if f.p.Rank() == 0 {
		return f.sh.b.Sync()
	}
	return nil
}

// reserved collective tags (below mpi's internal space).
const (
	tagCollList = 1<<20 + 1
	tagCollData = 1<<20 + 2
)

// SetView installs a new fileview collectively: the file appears as the
// data of filetype tiled from byte displacement disp, addressed in units
// of etype.
func (f *File) SetView(disp int64, etype, filetype *datatype.Type) error {
	if disp < 0 {
		return fmt.Errorf("core: negative displacement %d", disp)
	}
	if err := datatype.ValidateFiletype(etype, filetype); err != nil {
		return err
	}
	f.v = view{
		disp:  disp,
		etype: etype,
		ftype: filetype,
		esize: etype.Size(),
		fsize: filetype.Size(),
		fext:  filetype.Extent(),
	}
	f.viewBE, f.viewHandle = nil, 0
	if vb, ok := storage.AsViewBackend(f.sh.b); ok && !filetype.ContiguousTiled() {
		// Register the fileview with the backend once per SetView — the
		// storage-tier analogue of the engine's fileview caching.  The
		// backend deduplicates repeats of the same encoding, so this is
		// cheap for the common re-register.
		h, err := vb.RegisterView(disp, filetype)
		if err != nil {
			return err
		}
		f.viewBE, f.viewHandle = vb, h
		f.Stats.ViewRegistrations++
	}
	return f.eng.setView()
}

// checkAccess validates an access and returns the number of data bytes.
func (f *File) checkAccess(off int64, count int64, memtype *datatype.Type, buf []byte) (int64, error) {
	if off < 0 {
		return 0, fmt.Errorf("core: negative offset %d", off)
	}
	if memtype == nil {
		return 0, errors.New("core: nil memtype")
	}
	if count < 0 {
		return 0, fmt.Errorf("core: negative count %d", count)
	}
	d := count * memtype.Size()
	if d == 0 {
		return 0, nil
	}
	if memtype.TrueLB() < 0 {
		return 0, errors.New("core: memtype places data at negative offsets")
	}
	need := (count-1)*memtype.Extent() + memtype.TrueUB()
	if need > int64(len(buf)) {
		return 0, fmt.Errorf("core: buffer too small: need %d bytes, have %d", need, len(buf))
	}
	if d%f.v.esize != 0 {
		return 0, fmt.Errorf("core: access of %d bytes is not a whole number of etypes (etype size %d)", d, f.v.esize)
	}
	return d, nil
}

func putInt64(b []byte, v int64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(v) >> (8 * i))
	}
}

func getInt64(b []byte) int64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return int64(v)
}
