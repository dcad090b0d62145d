// Package ioserver provides dedicated I/O-server processes for the
// storage tier: each server owns one stripe of a file (the round-robin
// layout of storage.StripeGeom, generalized from the in-process Striped
// backend to a network of processes), and ranks access the file through
// a client-side storage.Backend that speaks a request/response protocol
// over the TCP transport's frame codec.
//
// The protocol has two faces.  The raw face is plain passthrough —
// ReadAt/WriteAt and offset-list (vectored) batches against a server's
// local stripe, with the client doing all the stripe math.  The view
// face is the paper's idea pushed across the wire: the client registers
// a fileview (displacement + datatype.Encode'd filetype tree) once,
// gets back a handle, and from then on each noncontiguous access is a
// constant-size (handle, d0, d1) request; the server walks the pattern
// with fotf against its own stripe and moves exactly the owned bytes,
// packed in data order.  An offset list naming n runs costs
// ceil(n/MaxListRuns) round-trips; the same access through a registered
// view costs one.
package ioserver

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/storage"
	"repro/internal/transport"
)

// Protocol operations, carried in the frame tag (within the transport's
// reserved server-tag range).  The frame src field carries a
// client-chosen sequence number echoed by the response; a response's
// tag is the request's op on success, or opErr.  The request and
// response of each op are given here and not again at its handler; what
// else an op is — its name, its handler, whether it settles, whose staged
// twin it is — is opTable's to say.
const (
	opRead      = transport.TagServerFirst - iota // extent → eof, data
	opWrite                                       // off, data → —
	opReadv                                       // list → data
	opWritev                                      // list, data → —
	opSize                                        // — → size
	opTruncate                                    // n → —
	opSync                                        // — → —
	opRegister                                    // disp, encoded filetype → handle
	opViewRead                                    // view head → data (own-stripe bytes, data order)
	opViewWrite                                   // view head, data → —
	opStats                                       // — → stats record
	opErr                                         // response only: class, message

	// Epoch commit protocol (crash-consistent collective writes): writes
	// staged under an epoch id are journaled, invisible to reads, and
	// applied atomically by opEpochCommit; a server restart discards
	// anything unsealed by a commit record.  A staged request is its
	// direct twin's behind an epoch prefix.
	opStageWrite     // epoch, opWrite's request → —
	opStageWritev    // epoch, opWritev's request → —
	opStageViewWrite // epoch, opViewWrite's request → —
	opEpochSeal      // epoch → incarnation, staged count, staged bytes (this connection)
	opEpochCommit    // epoch, incarnation → — (journal commit + apply)
	opEpochAbort     // epoch → — (discard staged state)
)

// opInfo is one row of the protocol table.
type opInfo struct {
	code int
	name string // the op's label, as DESIGN §10's table and test failures give it
	// serve handles a request whose epoch prefix, if the op has one,
	// dispatch has decoded; nil for what is no request.  A mutation and
	// its staged twin share one handler, which stages when it is handed
	// an epoch and moves the bytes when it is not.
	serve   func(st *connState, epoch uint64, body []byte) ([]byte, error)
	epoch   bool // the request leads with an epoch id
	mutates bool // the op writes the stripe directly: Server.settle comes first
	direct  int  // a staged op's direct twin, which a client inside an epoch sends under this code
}

// opTable is the protocol, in code order: dispatch, settle and the fuzz
// alphabet all read it, and DESIGN §10's table mirrors it.
var opTable = [...]opInfo{
	{code: opRead, name: "read", serve: (*connState).opRead},
	{code: opWrite, name: "write", serve: (*connState).opWrite, mutates: true},
	{code: opReadv, name: "readv", serve: (*connState).opReadv},
	{code: opWritev, name: "writev", serve: (*connState).opWritev, mutates: true},
	{code: opSize, name: "size", serve: (*connState).opSize},
	{code: opTruncate, name: "truncate", serve: (*connState).opTruncate, mutates: true},
	{code: opSync, name: "sync", serve: (*connState).opSync},
	{code: opRegister, name: "register", serve: (*connState).opRegister},
	{code: opViewRead, name: "view_read", serve: (*connState).opViewRead},
	{code: opViewWrite, name: "view_write", serve: (*connState).opViewWrite, mutates: true},
	{code: opStats, name: "stats", serve: (*connState).opStats},
	{code: opErr, name: "err"},
	{code: opStageWrite, name: "stage_write", serve: (*connState).opWrite, epoch: true, direct: opWrite},
	{code: opStageWritev, name: "stage_writev", serve: (*connState).opWritev, epoch: true, direct: opWritev},
	{code: opStageViewWrite, name: "stage_view_write", serve: (*connState).opViewWrite, epoch: true, direct: opViewWrite},
	{code: opEpochSeal, name: "epoch_seal", serve: (*connState).opEpochSeal, epoch: true},
	{code: opEpochCommit, name: "epoch_commit", serve: (*connState).opEpochCommit, epoch: true},
	{code: opEpochAbort, name: "epoch_abort", serve: (*connState).opEpochAbort, epoch: true},
}

// opFor finds tag's row, nil for a tag that is no op.
func opFor(tag int) *opInfo {
	if i := opRead - tag; i >= 0 && i < len(opTable) && opTable[i].code == tag {
		return &opTable[i]
	}
	return nil
}

// stagedOp is the code a client inside an epoch sends op under: its
// staged twin's, or op itself when it has none (reads are not staged).
func stagedOp(op int) int {
	for i := range opTable {
		if opTable[i].direct == op {
			return opTable[i].code
		}
	}
	return op
}

// MaxListRuns bounds the (offset, length) entries of one opReadv /
// opWritev request; the client chops larger batches.  Keeping the list
// short is what makes the per-request cost of raw offset-list access
// proportional to the run count — the overhead registered views remove.
const MaxListRuns = 256

// DefaultViewCache is the per-connection registered-view LRU capacity.
const DefaultViewCache = 64

// Error classes carried by opErr frames.  The client maps the first two
// back onto the storage sentinels, so errors.Is(err, ErrTransient) and
// IsPermanent give the same answers on both sides of the wire and a
// client-side storage.Resilient retries exactly what it would have
// retried locally.
const (
	classTransient  = 1 // retryable: maps to storage.ErrTransient
	classPermanent  = 2 // not retryable: maps to storage.ErrPermanent
	classStale      = 3 // view handle unknown or evicted: re-register
	classBad        = 4 // malformed request: permanent, names the defect
	classEpochRetry = 5 // commit raced a server restart: maps to storage.ErrEpochRetry
)

// errStale is the client-side sentinel for classStale; view operations
// catch it internally and re-register, so callers never observe it.
var errStale = errors.New("ioserver: stale view handle")

// errTruncated classifies a payload that ends mid-field.
var errTruncated = errors.New("ioserver: truncated request payload")

// errBadRequest classifies a structurally valid but unserviceable
// request (bad lengths, unknown op, oversized response).
var errBadRequest = errors.New("ioserver: bad request")

// The wire shapes.  Every field is a varint; a shape's encoder and
// decoder stand next to each other here, one side of the wire calls the
// one and the other side the other, and what a decoder refuses it
// refuses for every op that carries the shape.

func putV(buf []byte, v int64) []byte { return binary.AppendVarint(buf, v) }

func getV(buf []byte) (int64, []byte, error) {
	v, n := binary.Varint(buf)
	if n <= 0 {
		return 0, nil, errTruncated
	}
	return v, buf[n:], nil
}

// putVs appends vals, in order.
func putVs(buf []byte, vals ...int64) []byte {
	for _, v := range vals {
		buf = putV(buf, v)
	}
	return buf
}

// getVs decodes one field into each of dst, in order, and returns what
// follows them.
func getVs(buf []byte, dst ...*int64) (rest []byte, err error) {
	for _, p := range dst {
		if *p, buf, err = getV(buf); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// bounds is what a server holds requests against.
type bounds struct {
	// maxFrame is the frame payload limit: no request names more bytes
	// than one frame carries, in either direction.
	maxFrame int64
	// maxLocal is the end of the local offsets the stripe can have: past
	// it the global image of a local offset (StripeGeom.GlobalLen) no
	// longer fits an int64.  New derives it, at most one stripe row short
	// of exact.
	maxLocal int64
}

// extent is n bytes at local offset off.
type extent struct{ off, n int64 }

// check refuses an extent that is no part of any stripe: a negative
// offset or length, or an end that overflows, locally or as a global
// offset.
func (b bounds) check(e extent) error {
	if e.off < 0 || e.n < 0 || e.off > b.maxLocal-e.n {
		return fmt.Errorf("%w: extent off %d len %d", errBadRequest, e.off, e.n)
	}
	return nil
}

func putExtent(buf []byte, off, n int64) []byte { return putVs(buf, off, n) }

func (b bounds) getExtent(buf []byte) (e extent, rest []byte, err error) {
	if rest, err = getVs(buf, &e.off, &e.n); err != nil {
		return extent{}, nil, err
	}
	return e, rest, b.check(e)
}

// putList encodes the offset list of segs: k, k×extent.  The segments'
// bytes are no part of it; a write request appends them after.
func putList(buf []byte, segs []storage.Segment) []byte {
	buf = putV(buf, int64(len(segs)))
	for _, s := range segs {
		buf = putExtent(buf, s.Off, int64(len(s.Buf)))
	}
	return buf
}

// getList decodes an offset list into ents and sums the bytes it names,
// which one frame must be able to carry.
func (b bounds) getList(buf []byte, ents []extent) (_ []extent, total int64, rest []byte, err error) {
	k, buf, err := getV(buf)
	if err != nil {
		return ents, 0, nil, err
	}
	if k < 0 || k > MaxListRuns {
		return ents, 0, nil, fmt.Errorf("%w: list of %d runs (limit %d)", errBadRequest, k, MaxListRuns)
	}
	for ; k > 0; k-- {
		var e extent
		if e, buf, err = b.getExtent(buf); err != nil {
			return ents, 0, nil, err
		}
		if e.n > b.maxFrame-total { // not total+n: that sum may wrap
			return ents, 0, nil, fmt.Errorf("%w: list names more than a frame's %d bytes", errBadRequest, b.maxFrame)
		}
		ents, total = append(ents, e), total+e.n
	}
	return ents, total, buf, nil
}

// putViewHead encodes the head of a view request: the connection's
// handle for the view and the data range [d0, d1).
func putViewHead(buf []byte, h uint64, d0, d1 int64) []byte { return putVs(buf, int64(h), d0, d1) }

func (b bounds) getViewHead(buf []byte) (h uint64, d0, d1 int64, rest []byte, err error) {
	var hv int64
	if rest, err = getVs(buf, &hv, &d0, &d1); err != nil {
		return 0, 0, 0, nil, err
	}
	if d0 < 0 || d1 < d0 || d1-d0 > b.maxFrame {
		return 0, 0, 0, nil, fmt.Errorf("%w: view range [%d,%d)", errBadRequest, d0, d1)
	}
	return uint64(hv), d0, d1, rest, nil
}

// putEpoch encodes the epoch prefix of the staged ops and the epoch ops.
func putEpoch(buf []byte, epoch uint64) []byte { return putV(buf, int64(epoch)) }

func getEpoch(buf []byte) (uint64, []byte, error) {
	e, rest, err := getV(buf)
	if err != nil {
		return 0, nil, err
	}
	if e <= 0 {
		return 0, nil, fmt.Errorf("%w: epoch id %d", errBadRequest, e)
	}
	return uint64(e), rest, nil
}

// ServerStats are one server's request counters, fetched with opStats
// and also reported locally by Server.Stats.
type ServerStats struct {
	Requests          int64 // requests handled, all ops
	RawReads          int64 // opRead and opReadv requests served
	RawWrites         int64 // opWrite and opWritev requests served
	ViewReads         int64 // opViewRead requests served
	ViewWrites        int64 // opViewWrite requests served
	ViewRegistrations int64 // opRegister requests that decoded a new view
	ViewCacheHits     int64 // opRegister requests answered from the view LRU
	StaleHandles      int64 // view requests naming an evicted or unknown handle
	BytesRead         int64 // data bytes sent to clients
	BytesWritten      int64 // data bytes received from clients
	StagedWrites      int64 // epoch-staged write requests
	EpochsCommitted   int64 // epoch commits applied
	EpochsSealed      int64 // epoch seal requests answered
	EpochsAborted     int64 // epochs whose staged state was discarded by abort
	JournalFsyncs     int64 // journal syncs: one per commit, one per checkpoint's reset, one per seal
	EpochsRecovered   int64 // committed epochs re-applied by journal recovery at start
	EpochsDiscarded   int64 // staged-but-uncommitted epochs discarded by recovery
	TornTails         int64 // torn journal tails truncated by recovery
}

// serverCounters is every use of ServerStats but the struct itself, in
// the order of the stats record: the server's live store and its
// snapshot, the sum across servers and the wire record are loops over
// it.
var serverCounters = [...]func(*ServerStats) *int64{
	func(st *ServerStats) *int64 { return &st.Requests },
	func(st *ServerStats) *int64 { return &st.RawReads },
	func(st *ServerStats) *int64 { return &st.RawWrites },
	func(st *ServerStats) *int64 { return &st.ViewReads },
	func(st *ServerStats) *int64 { return &st.ViewWrites },
	func(st *ServerStats) *int64 { return &st.ViewRegistrations },
	func(st *ServerStats) *int64 { return &st.ViewCacheHits },
	func(st *ServerStats) *int64 { return &st.StaleHandles },
	func(st *ServerStats) *int64 { return &st.BytesRead },
	func(st *ServerStats) *int64 { return &st.BytesWritten },
	func(st *ServerStats) *int64 { return &st.StagedWrites },
	func(st *ServerStats) *int64 { return &st.EpochsCommitted },
	func(st *ServerStats) *int64 { return &st.EpochsSealed },
	func(st *ServerStats) *int64 { return &st.EpochsAborted },
	func(st *ServerStats) *int64 { return &st.JournalFsyncs },
	func(st *ServerStats) *int64 { return &st.EpochsRecovered },
	func(st *ServerStats) *int64 { return &st.EpochsDiscarded },
	func(st *ServerStats) *int64 { return &st.TornTails },
}

// String lists the counters by field name.
func (st ServerStats) String() string {
	type fields ServerStats // without the method, %+v prints the struct
	return fmt.Sprintf("%+v", fields(st))
}

// add accumulates other into st, for aggregating across servers.
func (st *ServerStats) add(other ServerStats) {
	for _, field := range serverCounters {
		*field(st) += *field(&other)
	}
}

// encode appends the stats record: the counters in table order.
func (st ServerStats) encode(buf []byte) []byte {
	for _, field := range serverCounters {
		buf = putV(buf, *field(&st))
	}
	return buf
}

func decodeStats(buf []byte) (st ServerStats, err error) {
	for _, field := range serverCounters {
		if *field(&st), buf, err = getV(buf); err != nil {
			return ServerStats{}, err
		}
	}
	return st, nil
}

// putErr encodes a handler failure as an opErr payload — class,
// message — preserving the storage taxonomy.
func putErr(buf []byte, err error) []byte {
	class := int64(classPermanent)
	switch {
	case errors.Is(err, errStale):
		class = classStale
	case errors.Is(err, errTruncated) || errors.Is(err, errBadRequest):
		class = classBad
	case storage.IsEpochRetry(err):
		class = classEpochRetry
	case storage.IsTransient(err):
		class = classTransient
	}
	return append(putV(buf, class), err.Error()...)
}

func getErr(payload []byte) (class int64, msg string, err error) {
	class, rest, err := getV(payload)
	return class, string(rest), err
}

// unwireError is the client-side inverse: rebuild an error in the same
// class, wrapping the matching sentinel so errors.Is round-trips.
func unwireError(addr string, class int64, msg string) error {
	switch class {
	case classTransient:
		return fmt.Errorf("ioserver %s: %s: %w", addr, msg, storage.ErrTransient)
	case classStale:
		return fmt.Errorf("ioserver %s: %s: %w", addr, msg, errStale)
	case classEpochRetry:
		return fmt.Errorf("ioserver %s: %s: %w", addr, msg, storage.ErrEpochRetry)
	case classBad, classPermanent:
		return fmt.Errorf("ioserver %s: %s: %w", addr, msg, storage.ErrPermanent)
	}
	return fmt.Errorf("ioserver %s: error class %d: %s: %w", addr, class, msg, storage.ErrPermanent)
}
