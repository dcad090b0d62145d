package ioserver

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/datatype"
	"repro/internal/storage"
	"repro/internal/trace"
)

// The commit/checkpoint contract, at the instants a server can crash.
// A crashRig drives one server in process over two crashMems and then
// "crashes" it: recovery runs over the images the crash would leave.

// crashMem is a Mem whose Sync is a durability point.  It keeps the
// image its last Sync made durable and notes every Sync — and, as the
// journal, every write of a header — in a log it shares with its rig.
// A vectored write whose segments lie end to end — the journal's — is
// one write of their bytes, which a crash may tear at any byte, as it
// may a plain one; any other batch is its segments' writes in order.
//
// It implements the early-writeback hint in the worst case: the hinted
// bytes, as they are when hinted, become durable at once — all of them,
// or, should the device be cut off part way, any prefix of them.
// earlyImages gives the image behind every such cut.
type crashMem struct {
	*storage.Mem
	name    string
	log     *[]string
	durable []byte
	syncs   int
	hints   []storage.Segment // hinted since the last Sync: where, and the bytes written back
	asked   [][2]int64        // every hint, as off and n
}

func (c *crashMem) WriteAt(p []byte, off int64) (int, error) {
	if off == 0 && c.name == "journal" {
		*c.log = append(*c.log, "journal write@0")
	}
	return c.Mem.WriteAt(p, off)
}

func (c *crashMem) WriteAtv(segs []storage.Segment) error {
	lo, hi := storage.SegsSpan(segs)
	one := make([]byte, 0, hi-lo)
	for _, sg := range segs {
		if sg.Off != lo+int64(len(one)) {
			for _, sg := range segs {
				if _, err := c.WriteAt(sg.Buf, sg.Off); err != nil {
					return err
				}
			}
			return nil
		}
		one = append(one, sg.Buf...)
	}
	_, err := c.WriteAt(one, lo)
	return err
}

func (c *crashMem) Sync() error {
	c.syncs++
	*c.log = append(*c.log, c.name+" sync")
	c.durable = memBytes(c.Mem)
	c.hints = nil
	return nil
}

func (c *crashMem) StartWriteback(off, n int64) {
	c.asked = append(c.asked, [2]int64{off, n})
	buf := make([]byte, n)
	if err := storage.ReadFull(c.Mem, buf, off); err != nil {
		panic(err)
	}
	c.hints = append(c.hints, storage.Segment{Off: off, Buf: buf})
}

// earlyImages returns, for k = 1 up to every byte hinted since the last
// Sync, the durable image with the first k hinted bytes written back
// over it: a cut at every record boundary, and inside every record.
func (c *crashMem) earlyImages() [][]byte {
	var imgs [][]byte
	for i, h := range c.hints {
		for k := 1; k <= len(h.Buf); k++ {
			img := storage.NewMem()
			img.WriteAt(c.durable, 0)
			for _, prev := range c.hints[:i] {
				img.WriteAt(prev.Buf, prev.Off)
			}
			img.WriteAt(h.Buf[:k], h.Off)
			imgs = append(imgs, memBytes(img))
		}
	}
	return imgs
}

type crashRig struct {
	t               *testing.T
	stripe, journal *crashMem
	log             []string
	srv             *Server
	st              *connState
}

func newCrashRig(t *testing.T, tweak func(*Config)) *crashRig {
	t.Helper()
	r := &crashRig{t: t}
	r.stripe = &crashMem{Mem: storage.NewMem(), name: "stripe", log: &r.log}
	r.journal = &crashMem{Mem: storage.NewMem(), name: "journal", log: &r.log}
	cfg := Config{Backend: r.stripe, Geom: storage.StripeGeom{Unit: 1 << 20, Count: 1}, Journal: NewJournal(r.journal)}
	if tweak != nil {
		tweak(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.srv, r.st = srv, localConn(srv)
	return r
}

// do issues one request and fails the test if the server refuses it.
func (r *crashRig) do(op int, payload []byte) []byte {
	r.t.Helper()
	resp, err := r.st.dispatch(op, payload)
	if err != nil {
		r.t.Fatalf("op %s: %v", opFor(op).name, err)
	}
	return bytes.Clone(resp)
}

func (r *crashRig) stage(epoch uint64, off int64, data string) {
	r.t.Helper()
	r.do(opStageWritev, append(vs(int64(epoch), 1, off, int64(len(data))), data...))
}

func (r *crashRig) commit(epoch uint64) {
	r.t.Helper()
	r.do(opEpochCommit, vs(int64(epoch), r.srv.incarnation))
}

func (r *crashRig) write(off int64, data string) {
	r.t.Helper()
	r.do(opWritev, append(vs(1, off, int64(len(data))), data...))
}

// read is what a client reads from the running server: up to n bytes
// from offset 0, as far as the stripe reaches.
func (r *crashRig) read(n int64) string {
	r.t.Helper()
	n = min(n, r.srv.cfg.Backend.Size())
	return string(r.do(opReadv, vs(1, 0, n)))
}

// crashed recovers from every image a crash at this instant can leave —
// a killed process (everything written so far is in the page cache), a
// power loss at its harshest (only what was synced), and a power loss
// after the journal's early writeback got any prefix of its hinted bytes
// to the device — and requires the stripe to hold want in each.  It
// returns the last recovery's report: the power loss with every hinted
// byte written back, or with none when nothing was hinted since the
// journal's last sync.
func (r *crashRig) crashed(want string) RecoveryInfo {
	r.t.Helper()
	type image struct {
		name            string
		stripe, journal []byte
	}
	imgs := []image{
		{"kill", memBytes(r.stripe.Mem), memBytes(r.journal.Mem)},
		{"power loss", r.stripe.durable, r.journal.durable},
	}
	for k, jimg := range r.journal.earlyImages() {
		imgs = append(imgs, image{fmt.Sprintf("power loss, early writeback cut at hinted byte %d", k+1), r.stripe.durable, jimg})
	}
	var info RecoveryInfo
	for _, img := range imgs {
		stripe, jb := storage.NewMem(), storage.NewMem()
		stripe.WriteAt(img.stripe, 0)
		jb.WriteAt(img.journal, 0)
		var err error
		if _, info, err = RecoverJournal(jb, stripe); err != nil {
			r.t.Fatal(err)
		}
		if got := string(memBytes(stripe)); got != want {
			r.t.Errorf("after %s and recovery the stripe holds %q, want %q (%s)", img.name, got, want, info)
		}
	}
	return info
}

// before requires log entry a to come before log entry b.
func (r *crashRig) before(a, b string) {
	r.t.Helper()
	ia, ib := slices.Index(r.log, a), slices.Index(r.log, b)
	if ia < 0 || ib < 0 || ia > ib {
		r.t.Errorf("want %q before %q, log is %q", a, b, r.log)
	}
}

// TestCommitIsOneJournalSync: a commit waits for one journal sync and
// nothing else, its bytes are readable at once, and every commit
// acknowledged that way is whole on the stripe after a crash, in commit
// order.
func TestCommitIsOneJournalSync(t *testing.T) {
	r := newCrashRig(t, nil)
	r.write(0, "................")
	r.do(opSync, nil)
	syncs, fsyncs := r.stripe.syncs, r.srv.journal.Fsyncs()

	r.stage(7, 0, "AAAA")
	r.stage(7, 8, "BBBB")
	r.commit(7)
	r.stage(8, 2, "CCCCCC")
	r.commit(8)
	r.stage(9, 6, "DDDD")
	r.commit(9)

	want := "AACCCCDDDDBB...."
	if got := r.read(16); got != want {
		t.Fatalf("after three commits a client reads %q, want %q", got, want)
	}
	if n := r.stripe.syncs - syncs; n != 0 {
		t.Errorf("three commits synced the stripe %d times, want 0", n)
	}
	if n := r.srv.journal.Fsyncs() - fsyncs; n != 3 {
		t.Errorf("three commits synced the journal %d times, want 3", n)
	}
	if n := r.srv.checkpoints.Load(); n != 0 {
		t.Errorf("%d checkpoints below the live-bytes bound, want 0", n)
	}
	if info := r.crashed(want); info.AppliedEpochs != 3 || info.LastCommitted != 9 {
		t.Errorf("recovery replayed %+v, want 3 epochs up to 9", info)
	}
}

// TestAbortKeepsCommittedEpochs: an abort drops its own epoch and
// nothing else; the epochs committed before it, which only the journal
// holds durably, survive it.
func TestAbortKeepsCommittedEpochs(t *testing.T) {
	r := newCrashRig(t, nil)
	r.write(0, "........")
	r.stage(7, 0, "AAAA")
	r.commit(7)
	r.stage(8, 4, "XXXX")
	r.do(opEpochAbort, vs(8))
	if info := r.crashed("AAAA...."); info.DiscardedEpochs != 0 {
		t.Errorf("the aborted epoch is still in the journal: %+v", info)
	}
	// The id is free again: a later epoch 8 commits its own bytes only.
	r.stage(8, 6, "ZZ")
	r.commit(8)
	r.crashed("AAAA..ZZ")
}

// TestEmptyEpochCommit: a commit of an epoch with nothing staged on this
// server advances lastCommitted and touches neither journal nor stripe.
func TestEmptyEpochCommit(t *testing.T) {
	r := newCrashRig(t, nil)
	r.commit(5)
	r.commit(5) // a retried commit is not a second epoch
	r.commit(6)
	if len(r.log) != 0 {
		t.Errorf("empty commits reached the stores: %q", r.log)
	}
	r.srv.epochMu.Lock()
	got := r.srv.lastCommitted
	r.srv.epochMu.Unlock()
	if got != 6 {
		t.Errorf("lastCommitted = %d, want 6", got)
	}
	if got := r.srv.Stats().EpochsCommitted; got != 2 {
		t.Errorf("epochsCommitted = %d, want 2", got)
	}
}

// TestDirectMutationCheckpoints: a direct mutation that finds committed
// epochs in the journal checkpoints first, so that a replay cannot land
// them over it; followed by an acknowledged sync, it survives any crash.
// And the mutation's staged twin — the same request behind an epoch
// prefix, through the same handler — leaves, once committed, the stripe
// the direct request leaves, byte for byte.  A view SetView refuses
// mutates nothing: its registration is a bad request, which neither
// checkpoints nor touches a store.
func TestDirectMutationCheckpoints(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   int
		body func(r *crashRig) []byte // nil: the view is refused
		want string
	}{
		{"write", opWritev, func(*crashRig) []byte { return append(vs(1, 2, 4), "YYYY"...) }, "AAYYYYAA"},
		{"writev", opWritev, func(*crashRig) []byte { return append(vs(2, 0, 2, 6, 2), "YYZZ"...) }, "YYAAAAZZ"},
		{"view write", opViewWrite, func(r *crashRig) []byte {
			v := r.st.register(r.t, 0, viewType(r.t, 2, 4, 2))
			return append(putViewHead(nil, v.handle, 0, 4), "YYZZ"...)
		}, "YYAAZZAA"},
		{"view write, view not navigable", opViewWrite, nil, "AAAAAAAA"},
		{"truncate", opTruncate, func(*crashRig) []byte { return vs(4) }, "AAAA"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newCrashRig(t, nil)
			r.stage(7, 0, "AAAAAAAA")
			r.commit(7)
			r.log = nil
			if tc.body == nil {
				ft, err := datatype.Hindexed([]int64{2, 2}, []int64{4, 0}, datatype.Byte) // data order runs against file order
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r.st.dispatch(opRegister, append(putV(nil, 0), datatype.Encode(ft)...)); !errors.Is(err, errBadRequest) {
					t.Fatalf("registering %v answers %v, want a bad request", ft, err)
				}
				if n := r.srv.checkpoints.Load(); n != 0 || len(r.log) != 0 {
					t.Fatalf("a refused view checkpointed %d times and reached for %q", n, r.log)
				}
				r.crashed(tc.want)
				return
			}
			body := tc.body(r)
			r.do(tc.op, body)
			if n := r.srv.checkpoints.Load(); n != 1 {
				t.Fatalf("%d checkpoints ahead of the mutation, want 1", n)
			}
			if got := r.read(8); got != tc.want {
				t.Fatalf("a client reads %q, want %q", got, tc.want)
			}
			// A second mutation finds the journal empty and pays nothing.
			r.log = nil
			r.do(tc.op, body)
			if len(r.log) != 0 {
				t.Errorf("a mutation over an empty journal reached for %q", r.log)
			}
			r.do(opSync, nil)
			r.crashed(tc.want)

			staged := stagedOp(tc.op)
			if staged == tc.op {
				return // truncate has no twin
			}
			twin := newCrashRig(t, nil)
			twin.stage(7, 0, "AAAAAAAA")
			twin.commit(7)
			twin.do(staged, append(putEpoch(nil, 8), tc.body(twin)...))
			if got := twin.read(8); got != "AAAAAAAA" {
				t.Fatalf("a client reads %q of the staged twin before its commit", got)
			}
			twin.commit(8)
			if got, want := memBytes(twin.stripe.Mem), memBytes(r.stripe.Mem); !bytes.Equal(got, want) {
				t.Fatalf("staged and committed the stripe holds %q, written directly %q", got, want)
			}
			twin.crashed(tc.want)
		})
	}
}

// TestCheckpointOrder: the stripe is synced before the journal's header
// is rewritten, at every site that checkpoints — which is what makes a
// torn header (an empty journal) a correct state to recover from.
func TestCheckpointOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		force func(r *crashRig)
	}{
		{"sync", func(r *crashRig) { r.do(opSync, nil) }},
		{"direct write", func(r *crashRig) { r.write(0, "Y") }},
		{"abort", func(r *crashRig) { r.stage(8, 0, "X"); r.do(opEpochAbort, vs(8)) }},
		{"live bytes bound", func(r *crashRig) {
			r.srv.checkpointAt = 64
			r.stage(8, 4, string(bytes.Repeat([]byte{'B'}, 64)))
			r.commit(8)
		}},
		{"close", func(r *crashRig) { r.srv.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newCrashRig(t, nil)
			r.stage(7, 0, "AAAA")
			r.commit(7)
			r.log = nil
			tc.force(r)
			r.before("stripe sync", "journal write@0")
			if n := r.srv.checkpoints.Load(); n != 1 {
				t.Errorf("%d checkpoints, want 1", n)
			}
			// The mid-checkpoint instants: the stripe as synced, under the
			// journal as it was, with its header torn, and as reset.
			for _, jimg := range [][]byte{
				append([]byte("NCJ1\xff\xff"), memBytes(r.journal.Mem)[6:]...),
				memBytes(r.journal.Mem),
			} {
				stripe, jb := storage.NewMem(), storage.NewMem()
				stripe.WriteAt(r.stripe.durable, 0)
				jb.WriteAt(jimg, 0)
				if _, info, err := RecoverJournal(jb, stripe); err != nil || info.AppliedEpochs != 0 {
					t.Fatalf("recovery after the checkpoint replayed %+v (%v)", info, err)
				}
				if got := memBytes(stripe); !bytes.HasPrefix(got, []byte("AAAA")) {
					t.Errorf("the synced stripe holds %q without a replay", got)
				}
			}
		})
	}
}

// TestCheckpointKeepsStagedEpoch: a checkpoint forced while an epoch is
// being staged journals its stages again behind the reset, so the commit
// record that follows still finds them.
func TestCheckpointKeepsStagedEpoch(t *testing.T) {
	r := newCrashRig(t, nil)
	r.write(0, "........")
	r.stage(7, 0, "AAAA")
	r.commit(7)
	r.stage(8, 4, "BB")
	r.write(6, "YY") // checkpoints under epoch 8's stages
	r.log = nil
	r.write(6, "YY") // with no committed epoch left in the journal, a staging one costs a write nothing
	if len(r.log) != 0 {
		t.Errorf("a direct write beside a staging epoch reached for %q", r.log)
	}
	r.do(opSync, nil)
	r.stage(8, 2, "CC")
	if got := r.read(8); got != "AAAA..YY" {
		t.Fatalf("a client reads %q before the commit", got)
	}
	r.commit(8)
	if info := r.crashed("AACCBBYY"); info.AppliedEpochs != 1 {
		t.Errorf("recovery replayed %+v, want epoch 8 alone", info)
	}
}

// TestCloseCheckpointsThenSeals: a closed server's journal is sealed and
// holds nothing to replay, and its stripe is whole without one.
func TestCloseCheckpointsThenSeals(t *testing.T) {
	r := newCrashRig(t, nil)
	r.stage(7, 0, "AAAA")
	r.commit(7)
	r.log = nil
	if err := r.srv.Close(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"stripe sync", "journal write@0", "journal sync", "journal sync"}; !slices.Equal(r.log, want) {
		t.Errorf("close did %q, want %q (checkpoint, then seal)", r.log, want)
	}
	if got := string(r.stripe.durable); got != "AAAA" {
		t.Errorf("the closed server's stripe holds %q durably", got)
	}
	if info := r.crashed("AAAA"); !info.Sealed || info.AppliedEpochs != 0 || info.TornTail {
		t.Errorf("recovery after close reports %+v, want sealed and nothing else", info)
	}
}

// TestCheckpointObservability: one span per checkpoint carrying the
// journal bytes it retired, beside the commit's, and inside the commit's
// the journal sync it waited for; the checkpoint counter,
// the journal's live bytes and the journal syncs in the server's stats.
func TestCheckpointObservability(t *testing.T) {
	tr := trace.NewCollector(0).Tracer(0)
	r := newCrashRig(t, func(cfg *Config) { cfg.Tracer = tr })
	r.stage(7, 0, "AAAA")
	r.commit(7)
	live, st := r.srv.journal.Live(), r.srv.Stats()
	if live == 0 || r.srv.checkpoints.Load() != 0 || st.EpochsCommitted != 1 || st.JournalFsyncs != 1 {
		t.Fatalf("after a commit: %d live bytes, %d checkpoints, stats %s", live, r.srv.checkpoints.Load(), st)
	}
	r.do(opSync, nil)
	r.do(opSync, nil) // an empty journal: a stripe sync, not a checkpoint
	if st = r.srv.Stats(); r.srv.journal.Live() != 0 || r.srv.checkpoints.Load() != 1 || st.JournalFsyncs != 2 {
		t.Errorf("after the checkpoint: %d live bytes, %d checkpoints, stats %s",
			r.srv.journal.Live(), r.srv.checkpoints.Load(), st)
	}
	var spans []string
	var commit, jsync trace.Event
	for _, ev := range tr.Events() {
		switch ev.Phase {
		case trace.PhaseServerCommit:
			commit = ev
		case trace.PhaseServerJournalSync:
			jsync = ev
		case trace.PhaseServerCheckpoint:
		default:
			continue
		}
		spans = append(spans, fmt.Sprintf("%s %d", ev.Phase, ev.Bytes))
	}
	if want := []string{"server.journal-sync 4", "server.commit 4", fmt.Sprintf("server.checkpoint %d", live)}; !slices.Equal(spans, want) {
		t.Errorf("spans %q, want %q", spans, want)
	}
	if jsync.Start < commit.Start || jsync.Start+jsync.Dur > commit.Start+commit.Dur || jsync.Window != 7 {
		t.Errorf("the journal sync %+v does not lie inside epoch 7's commit %+v", jsync, commit)
	}
}

// TestStagedAppendsStartWriteback: the journal hints each staged append
// once, exactly the bytes it appended (a fresh journal's first append
// leads with the header), and never a commit, seal or reset record,
// which are synced anyway; after a reset the hints start again behind
// the new header.
func TestStagedAppendsStartWriteback(t *testing.T) {
	r := newCrashRig(t, nil)
	j := r.srv.journal
	var want [][2]int64
	stage := func(epoch uint64, off int64, data string) {
		t.Helper()
		before := j.end.Load()
		r.stage(epoch, off, data)
		want = append(want, [2]int64{before, j.end.Load() - before})
	}
	stage(7, 0, "AAAA")
	stage(7, 8, "BBBB")
	r.commit(7)
	stage(8, 2, "CCCCCC")
	r.do(opEpochAbort, vs(8)) // a checkpoint: the journal resets
	stage(9, 4, "DD")
	r.commit(9)
	if err := r.srv.Close(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(r.journal.asked, want) {
		t.Errorf("hints [off n] %v, want one per staged append, %v", r.journal.asked, want)
	}
	if want[0][0] != 0 || want[3][0] != int64(hdrLen) {
		t.Errorf("the first hint starts at %d, the first after the reset at %d; want 0 and %d", want[0][0], want[3][0], hdrLen)
	}
}

// TestEarlyWritebackBeforeCommit: an epoch's staged records have been
// written back, wholly or in part, and the crash comes before its commit
// record.  The epoch never happened: the stripe stays as it was.
func TestEarlyWritebackBeforeCommit(t *testing.T) {
	r := newCrashRig(t, nil)
	r.write(0, "................")
	r.do(opSync, nil)
	r.stage(7, 0, "AAAA")
	r.stage(7, 8, "BBBB")
	if len(r.journal.hints) != 2 {
		t.Fatalf("%d hints outstanding after two stages, want 2", len(r.journal.hints))
	}
	if info := r.crashed("................"); info.DiscardedEpochs != 1 || info.AppliedEpochs != 0 {
		t.Errorf("with the staged records written back, recovery reports %+v, want epoch 7 discarded", info)
	}
}

// TestEarlyWritebackAfterReset: after a checkpoint the new generation's
// records are written back over the old generation's, and behind them
// lie the old generation's stale records of the same epoch id — aligned,
// its second stage and its commit whole.  None of the stale records
// replays: the stripe keeps the direct write made after the checkpoint,
// and the new generation's uncommitted epoch is discarded.
func TestEarlyWritebackAfterReset(t *testing.T) {
	r := newCrashRig(t, nil)
	r.write(0, "................")
	r.stage(7, 0, "AAAA")
	r.stage(7, 8, "BBBB")
	r.commit(7)
	r.do(opSync, nil) // checkpoint: the journal's generation moves on
	r.write(8, "YYYY")
	r.do(opSync, nil) // the direct write is durable
	stale := memBytes(r.journal.Mem)
	r.stage(7, 4, "CCCC")
	if got := memBytes(r.journal.Mem); len(got) != len(stale) || !bytes.Equal(got[len(got)-10:], stale[len(stale)-10:]) {
		t.Fatalf("the new stage record is not aligned over the old generation's first: %d bytes, %d before", len(got), len(stale))
	}
	if info := r.crashed("AAAA....YYYY...."); info.DiscardedEpochs != 1 || info.AppliedEpochs != 0 || !info.TornTail {
		t.Errorf("with the new record written back over stale ones, recovery reports %+v, want epoch 7 discarded at a torn tail", info)
	}
}
