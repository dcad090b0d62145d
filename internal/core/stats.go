package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/counter"
)

// Stats counts the work a file handle performed, separating the
// overheads the paper attributes to list-based I/O.
type Stats struct {
	// ListTuples is the number of ol-list tuples built (flattening,
	// per-access memtype lists, per-IOP access lists, window sub-lists).
	ListTuples int64
	// ListBytesSent is the ol-list exchange volume of collective
	// accesses (16 bytes per tuple).
	ListBytesSent int64
	// ViewBytesSent is the compact-fileview exchange volume of the
	// listless engine: this rank's encoded view, sent once per SetView.
	ViewBytesSent int64
	// SieveReads / SieveWrites count file windows processed: sieve
	// windows of independent access, and the IOP windows of a planned
	// collective.
	SieveReads, SieveWrites int64
	// PreReadsSkipped counts collective write windows that were written
	// without being read first, because the combined fileviews cover them.
	PreReadsSkipped int64
	// DirectReads / DirectWrites count the segments the owner mover
	// (File.moveOwn) hands the backend, with no window around them: the
	// stretches of this rank's own view, runs that abut both in the file
	// and in memory merged — one for a contiguous fileview — of an
	// independent access the mover takes and of its shares of the windows
	// of a collective with no plan.
	DirectReads, DirectWrites int64
	// VectoredReads / VectoredWrites count the mover's ReadAtv/WriteAtv
	// batches that carried those segments: one per chunk of an
	// independent access (all of it, or a pack buffer's worth at a time),
	// one per window of a collective with no plan this rank holds a share
	// of.
	VectoredReads, VectoredWrites int64
	// ViewRegistrations counts fileviews registered with a
	// view-capable backend (the remote I/O-server tier); ViewReads /
	// ViewWrites count the mover's view requests, which take the place
	// of its offset lists there, chunk for chunk.
	ViewRegistrations, ViewReads, ViewWrites int64
	// BytesRead / BytesWritten are user-data volumes moved.
	BytesRead, BytesWritten int64
	// CollectiveReads / CollectiveWrites count collective accesses this
	// rank completed.
	CollectiveReads, CollectiveWrites int64

	// Per-phase timing, in nanoseconds, separating where time goes on
	// this rank: ExchangeNs is AP↔IOP data send/receive, StorageNs is
	// backend I/O (the reads and write-backs of IOP and sieve windows, the
	// former overlapping the other two, and the owner mover's offset
	// lists and view requests, which it times for its independent and
	// collective callers alike),
	// CopyNs is pack/unpack and window copying.
	ExchangeNs, StorageNs, CopyNs int64
	// WindowsOverlapped counts collective windows whose storage I/O
	// (pre-read or write-back) proceeded concurrently with the exchange
	// or copy work of a neighboring window.
	WindowsOverlapped int64

	// EpochsCommitted counts collective writes committed through the
	// epoch crash-consistency protocol; EpochRetries counts seal or
	// commit rounds that were retried after a server bounce; EpochAborts
	// counts epochs abandoned after a collective fault.
	EpochsCommitted, EpochRetries, EpochAborts int64

	// ProgramCompiles counts datatype copy programs this handle had to
	// compile (process-wide memo-cache misses); ProgramCacheHits counts
	// lookups satisfied by the cache or by the entry a type already
	// holds.
	ProgramCompiles, ProgramCacheHits int64
}

// Snapshot returns a copy of the counters, for differencing around a
// phase of interest: take one before, one after, and Sub them.
func (s *Stats) Snapshot() Stats { return *s }

// Sub returns the counter deltas since an earlier snapshot.
func (s Stats) Sub(prev Stats) Stats { return counter.Sub(s, prev) }

// String renders the counters as a stable multi-line phase breakdown,
// one indented line per counter group; zero-valued groups are elided so
// independent runs don't print collective noise and vice versa.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "list tuples=%d  list bytes sent=%d  view bytes sent=%d\n",
		s.ListTuples, s.ListBytesSent, s.ViewBytesSent)
	fmt.Fprintf(&b, "sieve reads=%d writes=%d  pre-reads skipped=%d",
		s.SieveReads, s.SieveWrites, s.PreReadsSkipped)
	if s.DirectReads != 0 || s.DirectWrites != 0 {
		fmt.Fprintf(&b, "  direct reads=%d writes=%d", s.DirectReads, s.DirectWrites)
	}
	if s.ViewRegistrations != 0 {
		fmt.Fprintf(&b, "  view regs=%d reads=%d writes=%d", s.ViewRegistrations, s.ViewReads, s.ViewWrites)
	}
	if s.EpochsCommitted != 0 || s.EpochRetries != 0 {
		fmt.Fprintf(&b, "  epochs committed=%d retries=%d", s.EpochsCommitted, s.EpochRetries)
	}
	if s.ProgramCompiles != 0 || s.ProgramCacheHits != 0 {
		fmt.Fprintf(&b, "  programs compiled=%d cache hits=%d", s.ProgramCompiles, s.ProgramCacheHits)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "bytes read=%d written=%d\n", s.BytesRead, s.BytesWritten)
	if s.ExchangeNs != 0 || s.StorageNs != 0 || s.CopyNs != 0 {
		fmt.Fprintf(&b, "phases: exchange=%v  storage=%v  copy=%v  windows overlapped=%d\n",
			time.Duration(s.ExchangeNs).Round(time.Microsecond),
			time.Duration(s.StorageNs).Round(time.Microsecond),
			time.Duration(s.CopyNs).Round(time.Microsecond),
			s.WindowsOverlapped)
	}
	return b.String()
}
