package ioserver

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// The per-server intent journal: an append-only record stream living
// next to the stripe (for file-backed servers, `<stripe>.journal`) that
// makes epoch commits atomic with respect to crashes.  Staged writes are
// journaled before they are acknowledged; a commit appends a commit
// record and syncs the journal *before* touching the stripe, so a crash
// at any instant recovers to a well-defined state:
//
//	crash before the commit record  → the epoch never happened
//	crash after it (mid-apply or
//	before the truncate)            → recovery re-applies the epoch
//	                                  (idempotent: same offsets, same bytes)
//
// Record wire form (CRC-guarded, garbage-tolerant on recovery):
//
//	[type byte] [type-specific varint fields + data] [crc32c LE of the preceding bytes]
//
//	recStage:  epoch, off, n, n data bytes
//	recCommit: epoch
//	recSeal:   — (clean-shutdown marker appended by Server.Close)
//
// Recovery scans from the start, stops at the first record that fails
// validation (a torn tail from a crash mid-append, or garbage), applies
// every epoch whose commit record made it in, discards the rest, and
// truncates the journal.

const (
	recStage  = byte(1)
	recCommit = byte(2)
	recSeal   = byte(3)
)

var crcTab = crc32.MakeTable(crc32.Castagnoli)

// Journal is one server's intent journal over a storage.Backend.
// Obtain one with NewJournal (fresh/volatile) or RecoverJournal (replays
// and truncates existing contents first).  Safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	b      storage.Backend
	end    int64
	buf    []byte       // record staging, reused
	fsyncs atomic.Int64 // journal syncs performed (commit/seal/reset points)
}

// NewJournal wraps an empty (or expendable) backend as a journal.  Any
// existing contents are truncated away — use RecoverJournal to honor
// them.
func NewJournal(b storage.Backend) *Journal {
	b.Truncate(0)
	return &Journal{b: b}
}

// seal closes the record that starts at buf[start] with its CRC.
func seal(buf []byte, start int) []byte {
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], crcTab))
}

// appendRecs appends the sealed records in j.buf to the store with one
// write.
func (j *Journal) appendRecs() error {
	if _, err := j.b.WriteAt(j.buf, j.end); err != nil {
		return err
	}
	j.end += int64(len(j.buf))
	return nil
}

// AppendStage journals one staged write of epoch id.
func (j *Journal) AppendStage(epoch uint64, off int64, data []byte) error {
	return j.AppendStages(epoch, []storage.Segment{{Off: off, Buf: data}})
}

// AppendStages journals the staged writes of one request of epoch id:
// one record per segment, all of them appended with a single write.  A
// crash mid-write leaves a valid prefix of the records and a torn tail,
// as a crash between per-record writes would.
func (j *Journal) AppendStages(epoch uint64, segs []storage.Segment) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.buf = j.buf[:0]
	for _, sg := range segs {
		start := len(j.buf)
		j.buf = append(j.buf, recStage)
		j.buf = binary.AppendUvarint(j.buf, epoch)
		j.buf = binary.AppendVarint(j.buf, sg.Off)
		j.buf = binary.AppendVarint(j.buf, int64(len(sg.Buf)))
		j.buf = append(j.buf, sg.Buf...)
		j.buf = seal(j.buf, start)
	}
	return j.appendRecs()
}

// AppendCommit journals the commit decision for epoch id and syncs the
// journal — the commit point.  Once this returns, recovery will apply
// the epoch; before it, recovery will discard it.
func (j *Journal) AppendCommit(epoch uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.buf = append(j.buf[:0], recCommit)
	j.buf = seal(binary.AppendUvarint(j.buf, epoch), 0)
	if err := j.appendRecs(); err != nil {
		return err
	}
	return j.sync()
}

// AppendSeal journals a clean-shutdown marker and syncs.
func (j *Journal) AppendSeal() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.buf = seal(append(j.buf[:0], recSeal), 0)
	if err := j.appendRecs(); err != nil {
		return err
	}
	return j.sync()
}

// sync flushes the journal store and counts the durability point.
func (j *Journal) sync() error {
	if err := j.b.Sync(); err != nil {
		return err
	}
	j.fsyncs.Add(1)
	return nil
}

// Fsyncs reports the journal syncs performed so far.
func (j *Journal) Fsyncs() int64 { return j.fsyncs.Load() }

// Reset empties the journal after a committed epoch has been applied and
// the stripe synced: everything in it is now redundant.
func (j *Journal) Reset() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.end = 0
	if err := j.b.Truncate(0); err != nil {
		return err
	}
	return j.sync()
}

// Len reports the journal's current byte length, for tests.
func (j *Journal) Len() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.end
}

// journalRec is one decoded record.
type journalRec struct {
	typ   byte
	epoch uint64
	off   int64
	data  []byte
}

// scanJournal decodes records until the stream ends or fails validation.
// It never fails: arbitrary bytes decode to a (possibly empty) valid
// prefix plus a torn-tail flag.  Returned records alias buf.
func scanJournal(buf []byte) (recs []journalRec, torn bool) {
	for len(buf) > 0 {
		rec, rest, ok := scanOne(buf)
		if !ok {
			return recs, true
		}
		recs = append(recs, rec)
		buf = rest
	}
	return recs, false
}

func scanOne(buf []byte) (journalRec, []byte, bool) {
	body := buf // full record bytes, CRC-checked at the end
	if len(buf) < 1 {
		return journalRec{}, nil, false
	}
	rec := journalRec{typ: buf[0]}
	buf = buf[1:]
	switch rec.typ {
	case recStage:
		var n int
		if rec.epoch, n = binary.Uvarint(buf); n <= 0 {
			return journalRec{}, nil, false
		}
		buf = buf[n:]
		var off, dlen int64
		if off, n = binary.Varint(buf); n <= 0 || off < 0 {
			return journalRec{}, nil, false
		}
		buf = buf[n:]
		if dlen, n = binary.Varint(buf); n <= 0 || dlen < 0 || dlen > int64(len(buf)-n) {
			return journalRec{}, nil, false
		}
		buf = buf[n:]
		rec.off = off
		rec.data = buf[:dlen]
		buf = buf[dlen:]
	case recCommit:
		var n int
		if rec.epoch, n = binary.Uvarint(buf); n <= 0 {
			return journalRec{}, nil, false
		}
		buf = buf[n:]
	case recSeal:
		// no fields
	default:
		return journalRec{}, nil, false
	}
	if len(buf) < 4 {
		return journalRec{}, nil, false
	}
	bodyLen := len(body) - len(buf)
	if crc32.Checksum(body[:bodyLen], crcTab) != binary.LittleEndian.Uint32(buf) {
		return journalRec{}, nil, false
	}
	return rec, buf[4:], true
}

// RecoveryInfo summarizes one journal recovery.
type RecoveryInfo struct {
	// LastCommitted is the highest epoch id whose commit record was
	// found and applied (0 when none).
	LastCommitted uint64
	// AppliedEpochs / AppliedBytes count the committed epochs re-applied
	// to the stripe and the staged bytes they carried.
	AppliedEpochs int
	AppliedBytes  int64
	// DiscardedEpochs counts staged-but-uncommitted epochs thrown away.
	DiscardedEpochs int
	// TornTail reports that the scan stopped at a corrupt or truncated
	// record (everything after it was discarded).
	TornTail bool
	// Sealed reports a clean-shutdown seal marker at the journal's tail.
	Sealed bool
}

func (ri RecoveryInfo) String() string {
	return fmt.Sprintf("recovery: last committed epoch %d, %d applied (%dB), %d discarded, torn=%t, sealed=%t",
		ri.LastCommitted, ri.AppliedEpochs, ri.AppliedBytes, ri.DiscardedEpochs, ri.TornTail, ri.Sealed)
}

// RecoverJournal replays the journal in jb against the stripe backend:
// committed epochs are re-applied in journal order (idempotent — a crash
// mid-apply followed by a second recovery lands the same bytes),
// uncommitted staged state is discarded, and the journal is truncated.
// Only stripe or journal I/O can fail; arbitrary journal *contents*
// cannot.
func RecoverJournal(jb, stripe storage.Backend) (*Journal, RecoveryInfo, error) {
	var info RecoveryInfo
	size := jb.Size()
	buf := make([]byte, size)
	if size > 0 {
		if err := storage.ReadFull(jb, buf, 0); err != nil {
			return nil, info, fmt.Errorf("ioserver: reading journal: %w", err)
		}
	}
	recs, torn := scanJournal(buf)
	info.TornTail = torn
	info.Sealed = !torn && len(recs) > 0 && recs[len(recs)-1].typ == recSeal

	staged := make(map[uint64][]storage.Segment)
	order := []uint64{} // first-stage order, for counting discards deterministically
	applied := false
	for _, rec := range recs {
		switch rec.typ {
		case recStage:
			if _, ok := staged[rec.epoch]; !ok {
				order = append(order, rec.epoch)
			}
			staged[rec.epoch] = append(staged[rec.epoch], storage.Segment{Off: rec.off, Buf: rec.data})
		case recCommit:
			segs := staged[rec.epoch]
			if len(segs) > 0 {
				if err := storage.WriteAtv(stripe, segs); err != nil {
					return nil, info, fmt.Errorf("ioserver: re-applying epoch %d: %w", rec.epoch, err)
				}
				for _, s := range segs {
					info.AppliedBytes += int64(len(s.Buf))
				}
			}
			delete(staged, rec.epoch)
			info.AppliedEpochs++
			if rec.epoch > info.LastCommitted {
				info.LastCommitted = rec.epoch
			}
			applied = true
		}
	}
	for _, e := range order {
		if _, ok := staged[e]; ok {
			info.DiscardedEpochs++
		}
	}
	if applied {
		if err := stripe.Sync(); err != nil {
			return nil, info, fmt.Errorf("ioserver: syncing stripe after recovery: %w", err)
		}
	}
	j := &Journal{b: jb}
	if size > 0 {
		if err := j.Reset(); err != nil {
			return nil, info, fmt.Errorf("ioserver: truncating recovered journal: %w", err)
		}
	}
	return j, info, nil
}
