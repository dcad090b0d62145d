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
// tag is the request's op on success, or opErr.
const (
	opRead      = transport.TagServerFirst - iota // off, n → eof, data
	opWrite                                       // off, data → —
	opReadv                                       // k, k×(off,n) → data
	opWritev                                      // k, k×(off,n), data → —
	opSize                                        // — → size
	opTruncate                                    // n → —
	opSync                                        // — → —
	opRegister                                    // disp, encoded filetype → handle
	opViewRead                                    // handle, d0, d1 → data (own-stripe bytes, data order)
	opViewWrite                                   // handle, d0, d1, data → —
	opStats                                       // — → counters
	opErr                                         // response only: class, message

	// Epoch commit protocol (crash-consistent collective writes): writes
	// staged under an epoch id are journaled, invisible to reads, and
	// applied atomically by opEpochCommit; a server restart discards
	// anything unsealed by a commit record.
	opStageWrite     // epoch, off, data → — (staged opWrite)
	opStageWritev    // epoch, k, k×(off,n), data → — (staged opWritev)
	opStageViewWrite // epoch, handle, d0, d1, data → — (staged opViewWrite)
	opEpochSeal      // epoch → incarnation, staged count, staged bytes (this connection)
	opEpochCommit    // epoch, incarnation → — (journal commit + apply + sync)
	opEpochAbort     // epoch → — (discard staged state)
)

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

// ServerStats are one server's request counters, fetched with opStats
// and also reported locally by Server.Stats.
type ServerStats struct {
	Requests   int64 // requests handled, all ops
	RawReads   int64 // opRead + opReadv
	RawWrites  int64 // opWrite + opWritev
	ViewReads  int64 // opViewRead
	ViewWrites int64 // opViewWrite
	// ViewRegistrations counts opRegister requests that decoded a new
	// view; ViewCacheHits counts those answered from the LRU without
	// decoding; StaleHandles counts view requests naming an evicted or
	// unknown handle.
	ViewRegistrations int64
	ViewCacheHits     int64
	StaleHandles      int64
	// BytesRead / BytesWritten are data bytes moved to/from clients.
	BytesRead    int64
	BytesWritten int64
	// StagedWrites counts epoch-staged write requests (all three staged
	// ops); EpochsCommitted counts applied commits.
	StagedWrites    int64
	EpochsCommitted int64
	// Crash-consistency activity: seals and aborts observed live,
	// commits journaled to disk (JournalFsyncs counts the fsync calls
	// that made them durable), and what restart recovery found —
	// epochs replayed, epochs discarded as uncommitted, and torn
	// journal tails truncated.
	EpochsSealed    int64
	EpochsAborted   int64
	JournalFsyncs   int64
	EpochsRecovered int64
	EpochsDiscarded int64
	TornTails       int64
}

func (st ServerStats) String() string {
	return fmt.Sprintf("requests %d: raw %dr/%dw, view %dr/%dw (reg %d, cache hits %d, stale %d), %d staged/%d epochs (sealed %d, aborted %d, fsyncs %d, recovered %d, discarded %d, torn %d), %dB out, %dB in",
		st.Requests, st.RawReads, st.RawWrites, st.ViewReads, st.ViewWrites,
		st.ViewRegistrations, st.ViewCacheHits, st.StaleHandles,
		st.StagedWrites, st.EpochsCommitted,
		st.EpochsSealed, st.EpochsAborted, st.JournalFsyncs,
		st.EpochsRecovered, st.EpochsDiscarded, st.TornTails,
		st.BytesRead, st.BytesWritten)
}

// add accumulates other into st, for aggregating across servers.
func (st *ServerStats) add(other ServerStats) {
	st.Requests += other.Requests
	st.RawReads += other.RawReads
	st.RawWrites += other.RawWrites
	st.ViewReads += other.ViewReads
	st.ViewWrites += other.ViewWrites
	st.ViewRegistrations += other.ViewRegistrations
	st.ViewCacheHits += other.ViewCacheHits
	st.StaleHandles += other.StaleHandles
	st.BytesRead += other.BytesRead
	st.BytesWritten += other.BytesWritten
	st.StagedWrites += other.StagedWrites
	st.EpochsCommitted += other.EpochsCommitted
	st.EpochsSealed += other.EpochsSealed
	st.EpochsAborted += other.EpochsAborted
	st.JournalFsyncs += other.JournalFsyncs
	st.EpochsRecovered += other.EpochsRecovered
	st.EpochsDiscarded += other.EpochsDiscarded
	st.TornTails += other.TornTails
}

func (st ServerStats) encode(buf []byte) []byte {
	for _, v := range []int64{st.Requests, st.RawReads, st.RawWrites, st.ViewReads, st.ViewWrites,
		st.ViewRegistrations, st.ViewCacheHits, st.StaleHandles, st.BytesRead, st.BytesWritten,
		st.StagedWrites, st.EpochsCommitted,
		st.EpochsSealed, st.EpochsAborted, st.JournalFsyncs,
		st.EpochsRecovered, st.EpochsDiscarded, st.TornTails} {
		buf = putV(buf, v)
	}
	return buf
}

func decodeStats(buf []byte) (ServerStats, error) {
	var st ServerStats
	var err error
	for _, p := range []*int64{&st.Requests, &st.RawReads, &st.RawWrites, &st.ViewReads, &st.ViewWrites,
		&st.ViewRegistrations, &st.ViewCacheHits, &st.StaleHandles, &st.BytesRead, &st.BytesWritten,
		&st.StagedWrites, &st.EpochsCommitted,
		&st.EpochsSealed, &st.EpochsAborted, &st.JournalFsyncs,
		&st.EpochsRecovered, &st.EpochsDiscarded, &st.TornTails} {
		if *p, buf, err = getV(buf); err != nil {
			return ServerStats{}, err
		}
	}
	return st, nil
}

// errTruncated classifies a payload that ends mid-field.
var errTruncated = errors.New("ioserver: truncated request payload")

func putV(buf []byte, v int64) []byte { return binary.AppendVarint(buf, v) }

func getV(buf []byte) (int64, []byte, error) {
	v, n := binary.Varint(buf)
	if n <= 0 {
		return 0, nil, errTruncated
	}
	return v, buf[n:], nil
}

// wireError turns a local handler failure into (class, message) for an
// opErr frame, preserving the storage taxonomy.
func wireError(err error) (int64, string) {
	switch {
	case storage.IsEpochRetry(err):
		return classEpochRetry, err.Error()
	case storage.IsTransient(err):
		return classTransient, err.Error()
	default:
		return classPermanent, err.Error()
	}
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
