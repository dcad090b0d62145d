package ioserver

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// The per-server intent journal: a record stream living next to the
// stripe (for file-backed servers, `<stripe>.journal`) that makes epoch
// commits atomic and durable with respect to crashes.  Staged writes are
// journaled before they are acknowledged; a commit appends a commit
// record and syncs the journal — the commit point, and the only
// durability point a commit waits for.  The stripe is synced later, by
// the server's checkpoint, which then resets the journal; until then the
// journal holds every acknowledged epoch since the last checkpoint, and a
// crash at any instant recovers to a well-defined state:
//
//	crash before the commit record  → the epoch never happened
//	crash after it                  → recovery re-applies the epoch, and
//	                                  every epoch committed before it since
//	                                  the last checkpoint, in commit order
//	                                  (idempotent: same offsets, same bytes)
//
// The store is reused in place and keeps its high-water length; what is
// live is decided by a generation, not by the file's size:
//
//	[header: "NCJ1", generation u64 LE, crc32c LE of those 12 bytes]
//	[record]*
//
//	record: [type byte] [varint fields + data] [crc32c LE]
//	  recStage:  epoch, off, n, n data bytes
//	  recCommit: epoch
//	  recSeal:   — (clean-shutdown marker appended by Server.Close)
//
// A record's CRC runs over the header's first 12 bytes and then the
// record, so a record verifies under one generation only.  Reset bumps
// the generation and rewrites the header, one write and one sync: every
// record on the store stops verifying at once, whatever its length and
// alignment, and nothing is truncated.  A header that does not verify —
// a store never written, or a reset torn by a crash — is an empty
// journal; the caller of Reset has made the records redundant first.
//
// Recovery reads the live prefix only: from the header to the first
// record that does not verify under the header's generation (a torn
// append, garbage, or what an earlier generation left behind), applies
// every epoch whose commit record made it in, discards the rest, and
// resets.
//
// Staged records are written back early.  On a store with the
// storage.Writeback extension (a file), StartWriteback starts device
// writeback of everything appended since the last hint or sync, so the
// commit's sync waits for the epoch's tail rather than all of it.  No
// crash outcome moves: the kernel was always free to write those pages
// back before the sync, and recovery already takes any verifying prefix
// of appended records — what it cannot verify under the header's
// generation, it does not replay.  Commit, seal and reset records are
// not hinted; they are synced at once.

const (
	recStage  = byte(1)
	recCommit = byte(2)
	recSeal   = byte(3)

	hdrMagic = "NCJ1"
	hdrLen   = len(hdrMagic) + 8 + 4
)

var crcTab = crc32.MakeTable(crc32.Castagnoli)

// appendHeader appends the header of generation gen and returns its CRC,
// which is also the state every record CRC of that generation starts
// from.
func appendHeader(buf []byte, gen uint64) ([]byte, uint32) {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint64(append(buf, hdrMagic...), gen)
	seed := crc32.Checksum(buf[start:], crcTab)
	return binary.LittleEndian.AppendUint32(buf, seed), seed
}

// parseHeader returns the generation and the CRC of a header that
// verifies.
func parseHeader(h []byte) (gen uint64, seed uint32, ok bool) {
	if len(h) < hdrLen || string(h[:len(hdrMagic)]) != hdrMagic {
		return 0, 0, false
	}
	seed = binary.LittleEndian.Uint32(h[hdrLen-4:])
	if crc32.Checksum(h[:hdrLen-4], crcTab) != seed {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(h[len(hdrMagic):]), seed, true
}

// Journal is one server's intent journal over a storage.Backend.
// Obtain one with NewJournal (fresh/volatile) or RecoverJournal (replays
// and resets existing contents first).  Safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	b    storage.Backend
	gen  uint64 // generation of the records being appended
	seed uint32 // CRC of gen's header, where its records' CRCs start
	// end is the store offset of the next record.  It is 0 while the
	// store has no header of gen (a fresh store, or a reset that failed):
	// the next append then leads with one.  Written under mu; read
	// without it by Live.
	end    atomic.Int64
	buf    []byte            // record staging, reused: whole records, or a staged request's heads and CRCs
	cuts   []int             // AppendStages: where each record's data falls in buf, reused
	vec    []storage.Segment // AppendStages: the vectored write, reused
	fsyncs atomic.Int64      // journal syncs performed (commit/seal/reset points)
	// wb is b's early writeback, nil when b has none.  hinted is the
	// store offset up to which writeback has been started or the records
	// synced: what StartWriteback hints next begins there.  Under mu;
	// Reset rewinds it with end.
	wb     storage.Writeback
	hinted int64
}

// newJournal is the journal of generation gen over b, whose records end
// at the store's start until a header of gen is written.
func newJournal(b storage.Backend, gen uint64) *Journal {
	wb, _ := b.(storage.Writeback)
	return &Journal{b: b, wb: wb, gen: gen}
}

// NewJournal wraps an empty (or expendable) backend as a journal.  Any
// existing contents are truncated away — use RecoverJournal to honor
// them.
func NewJournal(b storage.Backend) *Journal {
	b.Truncate(0)
	return newJournal(b, 1)
}

// begin starts a batch of records in j.buf.  On a store without a header
// the batch leads with one, so a fresh journal's header costs no write
// of its own.
func (j *Journal) begin() {
	j.buf = j.buf[:0]
	if j.end.Load() == 0 {
		j.buf, j.seed = appendHeader(j.buf, j.gen)
	}
}

// seal closes the record that starts at j.buf[start] with its CRC.
func (j *Journal) seal(start int) {
	j.buf = binary.LittleEndian.AppendUint32(j.buf, crc32.Update(j.seed, crcTab, j.buf[start:]))
}

// appendRecs appends the sealed records in j.buf to the store with one
// write.
func (j *Journal) appendRecs() error {
	end := j.end.Load()
	if _, err := j.b.WriteAt(j.buf, end); err != nil {
		return err
	}
	j.end.Store(end + int64(len(j.buf)))
	return nil
}

// AppendStage journals one staged write of epoch id.
func (j *Journal) AppendStage(epoch uint64, off int64, data []byte) error {
	return j.AppendStages(epoch, []storage.Segment{{Off: off, Buf: data}})
}

// AppendStages journals the staged writes of one request of epoch id:
// one record per segment, all of them appended with a single vectored
// write.  j.buf holds the records' heads and CRCs; each record's data is
// written from the segment itself — the request's frame — and never
// copied.  The store receives the bytes one contiguous write of the
// records would give it, and a crash mid-write leaves a valid prefix of
// the records and a torn tail, as a crash between per-record writes
// would.
func (j *Journal) AppendStages(epoch uint64, segs []storage.Segment) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.begin()
	// cuts[i] is where segment i's data falls in j.buf: after its head,
	// before its CRC.
	j.cuts = j.cuts[:0]
	for _, sg := range segs {
		start := len(j.buf)
		j.buf = append(j.buf, recStage)
		j.buf = binary.AppendUvarint(j.buf, epoch)
		j.buf = binary.AppendVarint(j.buf, sg.Off)
		j.buf = binary.AppendVarint(j.buf, int64(len(sg.Buf)))
		crc := crc32.Update(crc32.Update(j.seed, crcTab, j.buf[start:]), crcTab, sg.Buf)
		j.cuts = append(j.cuts, len(j.buf))
		j.buf = binary.LittleEndian.AppendUint32(j.buf, crc)
	}
	off, prev := j.end.Load(), 0
	j.vec = j.vec[:0]
	for i, sg := range segs {
		if len(sg.Buf) == 0 {
			continue
		}
		cut := j.cuts[i]
		j.vec = append(j.vec, storage.Segment{Off: off, Buf: j.buf[prev:cut]})
		off += int64(cut - prev)
		j.vec = append(j.vec, storage.Segment{Off: off, Buf: sg.Buf})
		off += int64(len(sg.Buf))
		prev = cut
	}
	j.vec = append(j.vec, storage.Segment{Off: off, Buf: j.buf[prev:]})
	off += int64(len(j.buf) - prev)
	err := j.b.WriteAtv(j.vec)
	clear(j.vec) // hold no frame
	if err != nil {
		return err
	}
	j.end.Store(off)
	return nil
}

// AppendCommit journals the commit decision for epoch id and syncs the
// journal — the commit point.  Once this returns, recovery will apply
// the epoch; before it, recovery will discard it.
func (j *Journal) AppendCommit(epoch uint64) error {
	return j.appendSynced(recCommit, epoch)
}

// AppendSeal journals a clean-shutdown marker and syncs.
func (j *Journal) AppendSeal() error {
	return j.appendSynced(recSeal, 0)
}

// appendSynced appends one data-less record and syncs the journal.
func (j *Journal) appendSynced(typ byte, epoch uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.begin()
	start := len(j.buf)
	j.buf = append(j.buf, typ)
	if typ == recCommit {
		j.buf = binary.AppendUvarint(j.buf, epoch)
	}
	j.seal(start)
	if err := j.appendRecs(); err != nil {
		return err
	}
	return j.sync()
}

// sync flushes the journal store and counts the durability point.
// Everything appended is then on the device, so nothing is left to hint.
func (j *Journal) sync() error {
	if err := j.b.Sync(); err != nil {
		return err
	}
	j.hinted = j.end.Load()
	j.fsyncs.Add(1)
	return nil
}

// StartWriteback starts device writeback of the records appended since
// the last hint or sync and returns without waiting for it: a staged
// append's bytes then stream to the device while the rest of the epoch
// is staged, and the commit's sync waits for the tail.  It takes mu only
// to claim the range, so an append on another connection does not wait
// behind the hint.  On a store without the extension it does nothing.
func (j *Journal) StartWriteback() {
	if j.wb == nil {
		return
	}
	j.mu.Lock()
	off, end := j.hinted, j.end.Load()
	j.hinted = end
	j.mu.Unlock()
	if end > off {
		j.wb.StartWriteback(off, end-off)
	}
}

// Fsyncs reports the journal syncs performed so far.
func (j *Journal) Fsyncs() int64 { return j.fsyncs.Load() }

// Reset empties the journal once everything in it is redundant: the
// epochs it holds have been applied and the stripe synced.  The store
// keeps its length; the records on it belong to a generation that no
// longer is the header's.
func (j *Journal) Reset() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.gen++
	// Until the new header is on the store there is none of j.gen: should
	// the write fail, the next append leads with it.
	j.end.Store(0)
	j.hinted = 0
	j.begin()
	if err := j.appendRecs(); err != nil {
		return err
	}
	return j.sync()
}

// Live reports the bytes of records appended since the last reset: what
// a recovery would read, and what the next reset retires.
func (j *Journal) Live() int64 {
	return max(j.end.Load()-int64(hdrLen), 0)
}

// journalRec is one decoded record.
type journalRec struct {
	typ   byte
	epoch uint64
	off   int64
	data  []byte
}

// maxRecData bounds the data length a stage record may declare: a record
// holds at most one request's payload, and frames are shorter than this.
const maxRecData = math.MaxInt32

// scanOne decodes the record at the head of buf under the generation
// whose header CRC is seed.  n is the record's length when it verifies;
// rec.data then aliases buf.  Otherwise n is 0, and need tells the two
// ways of not verifying apart: above len(buf) when buf ends before the
// record its head declares does (need bytes would hold it), 0 when the
// bytes are no record of this generation.  It never fails: arbitrary
// bytes decode to one of the three.
func scanOne(buf []byte, seed uint32) (rec journalRec, n, need int) {
	// cut is the verdict on a field that did not decode: buf ended inside
	// it (k == 0), or it is malformed.
	cut := func(k int) (journalRec, int, int) {
		if k == 0 {
			return journalRec{}, 0, len(buf) + 1
		}
		return journalRec{}, 0, 0
	}
	if len(buf) == 0 {
		return cut(0)
	}
	rec.typ = buf[0]
	p := 1
	var dlen int64
	switch rec.typ {
	case recStage, recCommit:
		var k int
		if rec.epoch, k = binary.Uvarint(buf[p:]); k <= 0 {
			return cut(k)
		}
		p += k
		if rec.typ == recCommit {
			break
		}
		if rec.off, k = binary.Varint(buf[p:]); k <= 0 {
			return cut(k)
		}
		p += k
		if dlen, k = binary.Varint(buf[p:]); k <= 0 {
			return cut(k)
		}
		p += k
		if rec.off < 0 || dlen < 0 || dlen > maxRecData {
			return cut(-1)
		}
	case recSeal:
		// no fields
	default:
		return cut(-1)
	}
	end := p + int(dlen)
	if len(buf) < end+4 {
		return journalRec{}, 0, end + 4
	}
	if crc32.Update(seed, crcTab, buf[:end]) != binary.LittleEndian.Uint32(buf[end:]) {
		return cut(-1)
	}
	rec.data = buf[p:end]
	return rec, end + 4, 0
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
	// TornTail reports that an unsealed journal's live records were
	// followed by bytes that do not verify, or that its header did not:
	// a torn append, garbage, or — the store is reused in place, and the
	// two cannot be told apart — what an earlier generation left there.
	TornTail bool
	// Sealed reports a clean-shutdown seal marker as the last live
	// record.
	Sealed bool
}

func (ri RecoveryInfo) String() string {
	return fmt.Sprintf("recovery: last committed epoch %d, %d applied (%dB), %d discarded, torn=%t, sealed=%t",
		ri.LastCommitted, ri.AppliedEpochs, ri.AppliedBytes, ri.DiscardedEpochs, ri.TornTail, ri.Sealed)
}

// recoverChunk is how far recovery reads ahead of the record it decodes.
const recoverChunk = 1 << 20

// RecoverJournal replays the journal in jb against the stripe backend:
// committed epochs are re-applied in journal order (idempotent — a crash
// mid-apply followed by a second recovery lands the same bytes),
// uncommitted staged state is discarded as the server that wrote the
// journal discarded it (a commit drops whatever else was staged), the
// stripe is synced and the journal reset.  It reads the live records and
// at most recoverChunk beyond them, whatever length the store has grown
// to.  Only stripe or journal I/O can fail; arbitrary journal *contents*
// cannot.
func RecoverJournal(jb, stripe storage.Backend) (*Journal, RecoveryInfo, error) {
	var info RecoveryInfo
	size := jb.Size()
	var hdr [hdrLen]byte
	if size >= int64(hdrLen) {
		if err := storage.ReadFull(jb, hdr[:], 0); err != nil {
			return nil, info, fmt.Errorf("ioserver: reading journal header: %w", err)
		}
	}
	gen, seed, ok := parseHeader(hdr[:])
	if !ok {
		// An empty journal.  Records of any generation may lie behind a
		// torn header, and the next header restarts the count: cut them
		// off (recovery is the one place the store is ever truncated).
		if size > 0 {
			info.TornTail = true
			if err := jb.Truncate(0); err != nil {
				return nil, info, fmt.Errorf("ioserver: truncating journal: %w", err)
			}
		}
		return newJournal(jb, 1), info, nil
	}

	staged := make(map[uint64][]storage.Segment)
	last := byte(0) // type of the last live record
	pos, want := int64(hdrLen), int64(recoverChunk)
	stopped := false
	for pos < size && !stopped {
		// A chunk starts at a record and is never reallocated: staged
		// segments alias it until their epoch commits.
		chunk := make([]byte, min(size-pos, want))
		want = recoverChunk
		if err := storage.ReadFull(jb, chunk, pos); err != nil {
			return nil, info, fmt.Errorf("ioserver: reading journal: %w", err)
		}
		rest := chunk
		for len(rest) > 0 {
			rec, n, need := scanOne(rest, seed)
			if n == 0 {
				if need > len(rest) && pos+int64(need) <= size {
					// Cut by the chunk, not by the journal: read on from
					// this record.
					want = max(recoverChunk, int64(need))
				} else {
					stopped = true
				}
				break
			}
			rest, last = rest[n:], rec.typ
			pos += int64(n)
			switch rec.typ {
			case recStage:
				staged[rec.epoch] = append(staged[rec.epoch], storage.Segment{Off: rec.off, Buf: rec.data})
			case recCommit:
				segs := staged[rec.epoch]
				if len(segs) > 0 {
					if err := stripe.WriteAtv(segs); err != nil {
						return nil, info, fmt.Errorf("ioserver: re-applying epoch %d: %w", rec.epoch, err)
					}
					for _, s := range segs {
						info.AppliedBytes += int64(len(s.Buf))
					}
				}
				delete(staged, rec.epoch)
				info.DiscardedEpochs += len(staged)
				clear(staged)
				info.AppliedEpochs++
				info.LastCommitted = max(info.LastCommitted, rec.epoch)
			}
		}
	}
	info.DiscardedEpochs += len(staged)
	info.Sealed = last == recSeal
	info.TornTail = stopped && !info.Sealed

	// The order a checkpoint keeps: stripe first, then the reset.
	if info.AppliedEpochs > 0 {
		if err := stripe.Sync(); err != nil {
			return nil, info, fmt.Errorf("ioserver: syncing stripe after recovery: %w", err)
		}
	}
	j := newJournal(jb, gen)
	if err := j.Reset(); err != nil {
		return nil, info, fmt.Errorf("ioserver: resetting recovered journal: %w", err)
	}
	return j, info, nil
}
