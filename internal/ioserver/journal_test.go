package ioserver

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/storage"
)

// memBytes reads a Mem backend's full contents.
func memBytes(t *testing.T, m *storage.Mem) []byte {
	t.Helper()
	return m.Bytes()
}

// stageHinted journals one staged write and starts its writeback, as a
// server's stage does.
func stageHinted(t *testing.T, j *Journal, epoch uint64, off int64, data []byte) {
	t.Helper()
	if err := j.AppendStage(epoch, off, data); err != nil {
		t.Fatal(err)
	}
	j.StartWriteback()
}

// TestJournalCrashPoints simulates a server crash at every interesting
// instant of the stage→commit→apply→checkpoint sequence by constructing
// the on-disk journal state that crash would leave, then requires
// recovery to land the stripe in the one correct state: every committed
// epoch since the last checkpoint applied in commit order, uncommitted
// epochs and earlier generations' records gone, prior contents
// untouched.  The state is the one a killed process leaves, and each
// one a power loss leaves after the staged records' early writeback got
// any prefix of them to the device (crashMem).
func TestJournalCrashPoints(t *testing.T) {
	prior := []byte("................") // 16 bytes of pre-epoch stripe state
	stageA := []storage.Segment{
		{Off: 0, Buf: []byte("AAAA")},
		{Off: 8, Buf: []byte("BBBB")},
	}
	withA := []byte("AAAA....BBBB....")
	// commitA journals epoch 7 whole: two stage records of equal length,
	// then the commit record.
	commitA := func(t *testing.T, j *Journal) {
		for _, s := range stageA {
			stageHinted(t, j, 7, s.Off, s.Buf)
		}
		if err := j.AppendCommit(7); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name    string
		journal func(t *testing.T, j *Journal)
		stripe  []byte // stripe contents at crash time
		want    []byte
		applied int
		discard int
		torn    bool
		sealed  bool
	}{
		{
			name:    "crash before any staging",
			journal: func(t *testing.T, j *Journal) {},
			stripe:  prior,
			want:    prior,
		},
		{
			name: "crash between stage and commit",
			journal: func(t *testing.T, j *Journal) {
				for _, s := range stageA {
					stageHinted(t, j, 7, s.Off, s.Buf)
				}
			},
			stripe:  prior,
			want:    prior, // the epoch never happened
			discard: 1,
		},
		{
			name: "crash after commit record, before apply",
			journal: func(t *testing.T, j *Journal) {
				for _, s := range stageA {
					stageHinted(t, j, 7, s.Off, s.Buf)
				}
				if err := j.AppendCommit(7); err != nil {
					t.Fatal(err)
				}
			},
			stripe:  prior,
			want:    withA,
			applied: 1,
		},
		{
			name: "crash mid-apply (first segment landed)",
			journal: func(t *testing.T, j *Journal) {
				for _, s := range stageA {
					stageHinted(t, j, 7, s.Off, s.Buf)
				}
				if err := j.AppendCommit(7); err != nil {
					t.Fatal(err)
				}
			},
			stripe:  []byte("AAAA............"), // partial apply is idempotent to redo
			want:    withA,
			applied: 1,
		},
		{
			name: "committed epoch followed by uncommitted epoch",
			journal: func(t *testing.T, j *Journal) {
				for _, s := range stageA {
					stageHinted(t, j, 7, s.Off, s.Buf)
				}
				if err := j.AppendCommit(7); err != nil {
					t.Fatal(err)
				}
				stageHinted(t, j, 8, 4, []byte("XXXX"))
			},
			stripe:  prior,
			want:    withA, // epoch 8 discarded
			applied: 1,
			discard: 1,
		},
		{
			name: "torn tail mid-record",
			journal: func(t *testing.T, j *Journal) {
				for _, s := range stageA {
					stageHinted(t, j, 7, s.Off, s.Buf)
				}
				if err := j.AppendCommit(7); err != nil {
					t.Fatal(err)
				}
				// A crash mid-append leaves a truncated record: write a
				// valid header with no CRC behind the good records.
				if _, err := j.b.WriteAt([]byte{recStage, 0x09}, j.end.Load()); err != nil {
					t.Fatal(err)
				}
			},
			stripe:  prior,
			want:    withA,
			applied: 1,
			torn:    true,
		},
		{
			name: "clean shutdown seal",
			journal: func(t *testing.T, j *Journal) {
				if err := j.AppendSeal(); err != nil {
					t.Fatal(err)
				}
			},
			stripe: prior,
			want:   prior,
			sealed: true,
		},
		{
			// Every acknowledged commit replays, in commit order: where
			// they overlap, the last one's bytes stand.
			name: "three commits acknowledged, no checkpoint",
			journal: func(t *testing.T, j *Journal) {
				commitA(t, j)
				stageHinted(t, j, 8, 2, []byte("CCCCCC"))
				if err := j.AppendCommit(8); err != nil {
					t.Fatal(err)
				}
				stageHinted(t, j, 9, 6, []byte("DDDD"))
				if err := j.AppendCommit(9); err != nil {
					t.Fatal(err)
				}
			},
			stripe:  prior,
			want:    []byte("AACCCCDDDDBB...."),
			applied: 3,
		},
		{
			// The checkpoint synced the stripe and crashed before it
			// touched the journal: the replay lands the same bytes again.
			name:    "mid-checkpoint, stripe synced, header not yet rewritten",
			journal: commitA,
			stripe:  withA,
			want:    withA,
			applied: 1,
		},
		{
			// The header rewrite was torn.  A header that does not verify is
			// an empty journal, which is the right answer only because the
			// stripe was synced before the rewrite began
			// (TestCheckpointOrder).
			name: "mid-checkpoint, header torn",
			journal: func(t *testing.T, j *Journal) {
				commitA(t, j)
				if _, err := j.b.WriteAt([]byte{0xff, 0xff, 0xff}, int64(len(hdrMagic))+2); err != nil {
					t.Fatal(err)
				}
			},
			stripe: withA,
			want:   withA,
			torn:   true,
		},
		{
			name: "checkpoint complete, old generation left behind",
			journal: func(t *testing.T, j *Journal) {
				commitA(t, j)
				if err := j.Reset(); err != nil {
					t.Fatal(err)
				}
			},
			stripe: withA,
			want:   withA,
			torn:   true, // what follows the header no longer verifies
		},
		{
			// tier64's epochs are byte for byte the same length, so a new
			// generation's records end exactly where an old generation's
			// begin.  Here the new generation staged one record of epoch 7
			// and crashed; behind it lie the old generation's second stage
			// record and its commit record for the same epoch id, whole.
			// Replaying them would commit half of an unacknowledged epoch
			// and undo a later direct write.
			name: "new generation, aligned stale tail of the same epoch id",
			journal: func(t *testing.T, j *Journal) {
				commitA(t, j)
				if err := j.Reset(); err != nil {
					t.Fatal(err)
				}
				stageHinted(t, j, 7, 4, []byte("CCCC"))
			},
			stripe:  []byte("AAAA....YYYY...."),
			want:    []byte("AAAA....YYYY...."),
			discard: 1,
			torn:    true,
		},
		{
			// The same, with the new generation's epoch committed: its own
			// records replay, the stale ones behind them do not.
			name: "new generation committed, aligned stale tail",
			journal: func(t *testing.T, j *Journal) {
				commitA(t, j)
				stageHinted(t, j, 8, 12, []byte("EEEE"))
				if err := j.AppendCommit(8); err != nil {
					t.Fatal(err)
				}
				if err := j.Reset(); err != nil {
					t.Fatal(err)
				}
				commitA(t, j)
			},
			stripe:  []byte("QQQQZZZZQQQQQQQQ"),
			want:    []byte("AAAAZZZZBBBBQQQQ"),
			applied: 1,
			torn:    true,
		},
		{
			name: "sealed over an old generation",
			journal: func(t *testing.T, j *Journal) {
				commitA(t, j)
				if err := j.Reset(); err != nil {
					t.Fatal(err)
				}
				if err := j.AppendSeal(); err != nil {
					t.Fatal(err)
				}
			},
			stripe: withA,
			want:   withA,
			sealed: true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jb := &crashMem{Mem: storage.NewMem(), name: "journal", log: new([]string)}
			tc.journal(t, NewJournal(jb))
			for k, img := range jb.earlyImages() {
				jmem, stripe := storage.NewMem(), storage.NewMem()
				jmem.WriteAt(img, 0)
				stripe.WriteAt(tc.stripe, 0)
				if _, _, err := RecoverJournal(jmem, stripe); err != nil {
					t.Fatal(err)
				}
				if got := stripe.Bytes(); !bytes.Equal(got, tc.want) {
					t.Errorf("written back up to hinted byte %d: stripe after recovery = %q, want %q", k+1, got, tc.want)
				}
			}
			stripe := storage.NewMem()
			if _, err := stripe.WriteAt(tc.stripe, 0); err != nil {
				t.Fatal(err)
			}

			j, info, err := RecoverJournal(jb, stripe)
			if err != nil {
				t.Fatal(err)
			}
			if got := memBytes(t, stripe); !bytes.Equal(got, tc.want) {
				t.Errorf("stripe after recovery = %q, want %q", got, tc.want)
			}
			if info.AppliedEpochs != tc.applied || info.DiscardedEpochs != tc.discard ||
				info.TornTail != tc.torn || info.Sealed != tc.sealed {
				t.Errorf("info = %+v, want applied=%d discarded=%d torn=%t sealed=%t",
					info, tc.applied, tc.discard, tc.torn, tc.sealed)
			}
			if j.Live() != 0 {
				t.Errorf("journal holds %d live bytes after recovery", j.Live())
			}

			// A second recovery (crash during the first) is a no-op.
			before := memBytes(t, stripe)
			_, info2, err := RecoverJournal(jb, stripe)
			if err != nil {
				t.Fatal(err)
			}
			if info2.AppliedEpochs != 0 || info2.DiscardedEpochs != 0 {
				t.Errorf("second recovery applied work: %+v", info2)
			}
			if got := memBytes(t, stripe); !bytes.Equal(got, before) {
				t.Error("second recovery changed the stripe")
			}
		})
	}
}

// FuzzJournalRecover feeds arbitrary bytes as journal contents: recovery
// must never panic or error (journal contents can be any garbage after
// a crash), must leave a journal with no live records that is usable at
// once, and must only ever *extend or overwrite* the stripe via
// committed records — never fail.
func FuzzJournalRecover(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{recSeal, 0, 0, 0, 0})
	f.Add([]byte{recStage, 1, 2, 3, 0xff})
	hdr, _ := appendHeader(nil, 1)
	f.Add(hdr)
	f.Add(append(hdr, recStage, 1, 2, 3, 0xff))
	// A well-formed stage+commit pair, as a valid-prefix seed; and the
	// same behind a later generation's records, as a valid stale tail.
	{
		jb := storage.NewMem()
		j := NewJournal(jb)
		j.AppendStage(3, 0, []byte("data"))
		j.AppendCommit(3)
		f.Add(jb.Bytes())
		j.Reset()
		j.AppendStage(4, 0, []byte("more"))
		f.Add(jb.Bytes())
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		jb := storage.NewMem()
		if _, err := jb.WriteAt(raw, 0); err != nil {
			t.Fatal(err)
		}
		stripe := storage.NewMem()
		j, _, err := RecoverJournal(jb, stripe)
		if err != nil {
			t.Fatalf("recovery failed on arbitrary journal bytes: %v", err)
		}
		if j.Live() != 0 {
			t.Fatalf("recovered journal holds %d live bytes", j.Live())
		}
		// The recovered journal must be immediately usable, whatever of
		// raw still lies on the store behind its header.
		if err := j.AppendStage(1, 0, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := j.AppendCommit(1); err != nil {
			t.Fatal(err)
		}
		if _, info, err := RecoverJournal(jb, stripe); err != nil || info.AppliedEpochs != 1 {
			t.Fatalf("post-recovery journal unusable: %v %+v", err, info)
		}
	})
}

// TestRecoveryReadsLivePrefix: recovery costs what is live, not what the
// store has grown to — records that straddle its read-ahead chunks, or
// are longer than one, replay whole, and an old generation's megabytes
// behind them are not read.
func TestRecoveryReadsLivePrefix(t *testing.T) {
	jb := storage.NewInstrumented(storage.NewMem())
	j := NewJournal(jb)
	fill := func(epoch uint64, sizes ...int) []byte {
		var want []byte
		for i, n := range sizes {
			data := bytes.Repeat([]byte{byte(epoch) + byte(i)}, n)
			if err := j.AppendStage(epoch, int64(len(want)), data); err != nil {
				t.Fatal(err)
			}
			want = append(want, data...)
		}
		if err := j.AppendCommit(epoch); err != nil {
			t.Fatal(err)
		}
		return want
	}
	fill(1, 6<<20, 6<<20) // the old generation: 12 MiB
	if err := j.Reset(); err != nil {
		t.Fatal(err)
	}
	// Five records across the first chunk's end, one of three chunks, one
	// that ends the journal a few bytes into a chunk.
	want := fill(2, 300<<10, 300<<10, 300<<10, 300<<10, 300<<10, 3<<20, 40)
	live := j.Live()

	stripe := storage.NewMem()
	_, info, err := RecoverJournal(jb, stripe)
	if err != nil {
		t.Fatal(err)
	}
	if info.AppliedEpochs != 1 || info.AppliedBytes != int64(len(want)) || !bytes.Equal(stripe.Bytes(), want) {
		t.Fatalf("recovery replayed %+v, stripe %d bytes, want one epoch of %d", info, stripe.Size(), len(want))
	}
	if read, limit := jb.Stats().BytesRead, live+2*recoverChunk; read > limit {
		t.Errorf("recovery read %d bytes of a %d-byte store holding %d live, want at most %d", read, jb.Size(), live, limit)
	}
}

// hintMem is a Mem that logs the writeback hints it is given, from any
// goroutine.
type hintMem struct {
	*storage.Mem
	mu    sync.Mutex
	hints [][2]int64 // off, n
}

func (h *hintMem) StartWriteback(off, n int64) {
	h.mu.Lock()
	h.hints = append(h.hints, [2]int64{off, n})
	h.mu.Unlock()
}

// TestJournalWritebackConcurrent: stages appended and hinted from
// several goroutines at once, as a server's connections do, are hinted
// exactly once between them: the hints tile the store from its start to
// the end of the last record, with no gap and no byte hinted twice.
func TestJournalWritebackConcurrent(t *testing.T) {
	jb := &hintMem{Mem: storage.NewMem()}
	j := NewJournal(jb)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte('A' + g)}, 100+g)
			for i := 0; i < 50; i++ {
				if err := j.AppendStage(7, int64(g*1000+i), data); err != nil {
					t.Error(err)
					return
				}
				j.StartWriteback()
			}
		}(g)
	}
	wg.Wait()
	slices.SortFunc(jb.hints, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	next := int64(0)
	for _, h := range jb.hints {
		if h[0] != next || h[1] <= 0 {
			t.Fatalf("hint [%d, +%d) where the next unhinted byte is %d: hints %v", h[0], h[1], next, jb.hints)
		}
		next += h[1]
	}
	if end := j.end.Load(); next != end {
		t.Errorf("the hints end at %d, the records at %d", next, end)
	}
}

// appendStagesOracle is the single-buffer encoder AppendStages replaced:
// every record, data and all, encoded into j.buf and appended with one
// write.  The vectored AppendStages must leave the same bytes.
func appendStagesOracle(j *Journal, epoch uint64, segs []storage.Segment) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.begin()
	for _, sg := range segs {
		start := len(j.buf)
		j.buf = append(j.buf, recStage)
		j.buf = binary.AppendUvarint(j.buf, epoch)
		j.buf = binary.AppendVarint(j.buf, sg.Off)
		j.buf = binary.AppendVarint(j.buf, int64(len(sg.Buf)))
		j.buf = append(j.buf, sg.Buf...)
		j.seal(start)
	}
	return j.appendRecs()
}

// storeBytes reads everything b holds.
func storeBytes(t *testing.T, b storage.Backend) []byte {
	t.Helper()
	p := make([]byte, b.Size())
	if err := storage.ReadFull(b, p, 0); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAppendStagesMatchesEncoder: for random staged requests — segments
// of random lengths, empty ones among them, lying in one frame as a
// parked request's do — the vectored AppendStages leaves the store byte
// for byte as the single-buffer encoder does: on a fresh store, whose
// first append leads with the header, and on one after Reset; on a Mem
// and on a File.  Recovery replays both alike, and replays what was
// committed.
func TestAppendStagesMatchesEncoder(t *testing.T) {
	dir := t.TempDir()
	stores := []struct {
		name string
		open func(name string) storage.Backend
	}{
		{"Mem", func(string) storage.Backend { return storage.NewMem() }},
		{"File", func(name string) storage.Backend {
			fb, err := storage.OpenFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fb.Close() })
			return fb
		}},
	}
	rng := rand.New(rand.NewSource(37))
	// request stages one request's segments of epoch on both journals and
	// applies them to img when commit will follow.
	request := func(t *testing.T, jv, jo *Journal, epoch uint64, img *storage.Mem, commit bool) {
		frame := make([]byte, 1+rng.Intn(2000))
		rng.Read(frame)
		var segs []storage.Segment
		for n := rng.Intn(6); n > 0; n-- {
			a := rng.Intn(len(frame))
			b := a + rng.Intn(len(frame)-a+1)
			if rng.Intn(4) == 0 {
				b = a // an empty segment
			}
			segs = append(segs, storage.Segment{Off: int64(rng.Intn(4096)), Buf: frame[a:b]})
		}
		if err := jv.AppendStages(epoch, segs); err != nil {
			t.Fatal(err)
		}
		if err := appendStagesOracle(jo, epoch, segs); err != nil {
			t.Fatal(err)
		}
		if commit {
			if err := storage.WriteAtv(img, segs); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, st := range stores {
		for trial := 0; trial < 30; trial++ {
			t.Run(st.name, func(t *testing.T) {
				vb, ob := st.open(fmt.Sprintf("v%d", trial)), st.open(fmt.Sprintf("o%d", trial))
				jv, jo := NewJournal(vb), NewJournal(ob)
				img := storage.NewMem() // the stripe recovery must leave
				epoch := uint64(1)
				reset := trial%2 == 1
				base := storage.NewMem()
				for r := 1 + rng.Intn(3); r > 0; r-- {
					request(t, jv, jo, epoch, img, true)
				}
				for _, j := range []*Journal{jv, jo} {
					if err := j.AppendCommit(epoch); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(storeBytes(t, vb), storeBytes(t, ob)) {
					t.Fatal("on a fresh store the journals differ")
				}
				if reset {
					// A checkpoint: the stripe holds epoch 1, the journal
					// nothing live.
					base.WriteAt(img.Bytes(), 0)
					for _, j := range []*Journal{jv, jo} {
						if err := j.Reset(); err != nil {
							t.Fatal(err)
						}
					}
				}
				epoch++
				for r := 1 + rng.Intn(3); r > 0; r-- {
					request(t, jv, jo, epoch, img, true)
				}
				for _, j := range []*Journal{jv, jo} {
					if err := j.AppendCommit(epoch); err != nil {
						t.Fatal(err)
					}
				}
				request(t, jv, jo, epoch+1, img, false) // staged, never committed
				if !bytes.Equal(storeBytes(t, vb), storeBytes(t, ob)) {
					t.Fatalf("the journals differ (reset %t)", reset)
				}
				for _, b := range []storage.Backend{vb, ob} {
					stripe := storage.NewMem()
					stripe.WriteAt(base.Bytes(), 0)
					if _, _, err := RecoverJournal(b, stripe); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(stripe.Bytes(), img.Bytes()) {
						t.Fatal("recovery left another stripe than the committed stages")
					}
				}
			})
		}
	}
}
