package core

import (
	"fmt"
	"strings"
	"time"
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
	// listless engine (once per SetView, or per access when caching is
	// disabled).
	ViewBytesSent int64
	// SieveReads / SieveWrites count file windows processed: sieve
	// windows of independent access, and windows of the collective loop
	// of either kind — a direct window is a window processed, it merely
	// has no buffer.
	SieveReads, SieveWrites int64
	// PreReadsSkipped counts collective write windows that were written
	// without being read first: buffered windows the combined fileviews
	// cover, and every direct window, which writes only the bytes of the
	// views and so has nothing to preserve.
	PreReadsSkipped int64
	// DirectReads / DirectWrites count contiguous pieces handed to the
	// backend as they are, with no window around them: the runs of an
	// independent access below SieveDensity, and the segments of the
	// collective loop's direct windows.
	DirectReads, DirectWrites int64
	// VectoredReads / VectoredWrites count the ReadAtv/WriteAtv batches
	// that carried those pieces: one per batch of a sparse independent
	// access (all of it, or a pack buffer's worth at a time), one per
	// direct window.
	VectoredReads, VectoredWrites int64
	// ViewRegistrations counts fileviews registered with a
	// view-capable backend (the remote I/O-server tier); ViewReads /
	// ViewWrites count the view-addressed transfers that replaced
	// offset lists on the direct path.
	ViewRegistrations, ViewReads, ViewWrites int64
	// BytesRead / BytesWritten are user-data volumes moved.
	BytesRead, BytesWritten int64
	// CollectiveReads / CollectiveWrites count collective accesses this
	// rank completed.
	CollectiveReads, CollectiveWrites int64

	// Per-phase collective timing, in nanoseconds, separating where
	// two-phase time goes on this rank: ExchangeNs is AP↔IOP data
	// send/receive, StorageNs is backend window I/O (the reads and
	// write-backs of buffered and direct windows alike, which overlap
	// the other two), CopyNs is pack/unpack and window copying (a
	// direct window has none on the IOP side).
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

// Sub returns the counter deltas since an earlier snapshot, field by
// field (TestStatsSubCoversEveryField fails on a field left out).
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		ListTuples:        s.ListTuples - prev.ListTuples,
		ListBytesSent:     s.ListBytesSent - prev.ListBytesSent,
		ViewBytesSent:     s.ViewBytesSent - prev.ViewBytesSent,
		SieveReads:        s.SieveReads - prev.SieveReads,
		SieveWrites:       s.SieveWrites - prev.SieveWrites,
		PreReadsSkipped:   s.PreReadsSkipped - prev.PreReadsSkipped,
		DirectReads:       s.DirectReads - prev.DirectReads,
		DirectWrites:      s.DirectWrites - prev.DirectWrites,
		VectoredReads:     s.VectoredReads - prev.VectoredReads,
		VectoredWrites:    s.VectoredWrites - prev.VectoredWrites,
		ViewRegistrations: s.ViewRegistrations - prev.ViewRegistrations,
		ViewReads:         s.ViewReads - prev.ViewReads,
		ViewWrites:        s.ViewWrites - prev.ViewWrites,
		BytesRead:         s.BytesRead - prev.BytesRead,
		BytesWritten:      s.BytesWritten - prev.BytesWritten,
		CollectiveReads:   s.CollectiveReads - prev.CollectiveReads,
		CollectiveWrites:  s.CollectiveWrites - prev.CollectiveWrites,
		ExchangeNs:        s.ExchangeNs - prev.ExchangeNs,
		StorageNs:         s.StorageNs - prev.StorageNs,
		CopyNs:            s.CopyNs - prev.CopyNs,
		WindowsOverlapped: s.WindowsOverlapped - prev.WindowsOverlapped,
		EpochsCommitted:   s.EpochsCommitted - prev.EpochsCommitted,
		EpochRetries:      s.EpochRetries - prev.EpochRetries,
		EpochAborts:       s.EpochAborts - prev.EpochAborts,
		ProgramCompiles:   s.ProgramCompiles - prev.ProgramCompiles,
		ProgramCacheHits:  s.ProgramCacheHits - prev.ProgramCacheHits,
	}
}

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
