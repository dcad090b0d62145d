package ioserver

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/datatype"
	"repro/internal/pool"
	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// readFrame reads one whole frame from fc, its payload into a fresh
// buffer.
func readFrame(fc *transport.FrameConn) (seq, tag int, payload []byte, err error) {
	seq, tag, n, err := fc.ReadHeader()
	if err != nil {
		return 0, 0, nil, err
	}
	payload = make([]byte, n)
	return seq, tag, payload, fc.ReadPayload(payload)
}

// viewWrite stores p as c's server's share of data range [d0, d1) of v.
func viewWrite(c *Client, v *View, d0, d1 int64, p []byte) error {
	return c.ViewWriteRange(v, d0, d1, [][]byte{p})
}

// checkFrames swaps a checked pool in for the test's frames — a second
// Put of a frame, or a write into one after its Put, panics — and
// returns the check that every frame taken has been put back.
func checkFrames(t *testing.T) func() {
	t.Helper()
	old := framePool
	framePool = pool.NewChecked()
	t.Cleanup(func() { framePool = old })
	return func() {
		t.Helper()
		st := framePool.Stats()
		if st.Gets == 0 || st.Gets != st.Puts {
			t.Errorf("%d frames taken from the pool, %d put back", st.Gets, st.Puts)
		}
	}
}

// serveStripe starts a one-stripe server over stripe listening at addr
// ("127.0.0.1:0" picks a port) and returns it with the address it took.
func serveStripe(t *testing.T, addr string, stripe storage.Backend) (*Server, string) {
	t.Helper()
	srv, err := New(Config{Backend: stripe, Geom: storage.StripeGeom{Unit: 1 << 20, Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// stagedSet is a client's staged writes of one epoch — a scalar write
// larger than a pool class and smaller ones, an offset list and a view
// write — and the image they leave once committed.
type stagedSet struct {
	v    *View
	want []byte
}

func newStagedSet(t *testing.T) *stagedSet {
	return &stagedSet{v: &View{Enc: datatype.Encode(viewType(t, 2, 4, 4))}, want: make([]byte, 8192)}
}

func (s *stagedSet) stage(t *testing.T, c *Client, epoch uint64) {
	t.Helper()
	c.BeginEpoch(epoch)
	fill := func(off, n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(int(epoch)*31 + off + i)
		}
		copy(s.want[off:], p)
		return p
	}
	if _, err := c.WriteAt(fill(1000, 2*pool.MinBuf), 1000); err != nil {
		t.Fatal(err)
	}
	segs := []storage.Segment{{Off: 100, Buf: fill(100, 10)}, {Off: 300, Buf: fill(300, 20)}}
	if err := c.WriteAtv(segs); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 8)
	for i := range p {
		p[i] = byte(int(epoch)*7 + i + 1)
		s.want[4*(i/2)+i%2] = p[i] // the view's runs: 2 bytes every 4
	}
	if err := viewWrite(c, s.v, 0, 8, p); err != nil {
		t.Fatal(err)
	}
}

// commit seals and commits epoch on c, resealing through a transient
// error: the first seal after a server bounce finds the connection dead,
// and the next redials and replays the stage log.
func commit(t *testing.T, c *Client, epoch uint64) {
	t.Helper()
	var err error
	for try := 0; try < 4; try++ {
		if err = c.SealEpoch(epoch); err == nil || !storage.IsTransient(err) {
			break
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CommitEpoch(epoch); err != nil {
		t.Fatal(err)
	}
}

func (s *stagedSet) readBack(t *testing.T, c *Client) {
	t.Helper()
	got := make([]byte, 2*pool.MinBuf+1000)
	if _, err := c.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if want := s.want[:len(got)]; !bytes.Equal(got, want) {
		t.Fatal("committed bytes differ from what was staged")
	}
}

// stagedHeads checks, with an epoch staged by c alone and its server's
// epochs holding serverFrames frames, that c's stage log holds one pooled
// head per staged request, the size of a head and not of its data, and
// that these are all the frames out of the pool.
func stagedHeads(t *testing.T, c *Client, serverFrames int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, r := range c.stage {
		if cap(r.buf) > pool.MinBuf {
			t.Errorf("staged request %d holds a %d-byte frame for %d data bytes: its data was copied", i, cap(r.buf), r.n)
		}
	}
	st := framePool.Stats()
	if out := int(st.Gets - st.Puts); out != len(c.stage)+serverFrames {
		t.Errorf("%d frames out of the pool, want %d heads and %d server frames", out, len(c.stage), serverFrames)
	}
}

// TestFrameOwnership holds every pooled frame, the heads of the client's
// staged requests and the server's staged payloads, to exactly one Put in
// each way an epoch ends.
func TestFrameOwnership(t *testing.T) {
	t.Run("commit", func(t *testing.T) {
		check := checkFrames(t)
		_, addr := serveStripe(t, "127.0.0.1:0", storage.NewMem())
		c := NewClient(addr, ClientOptions{})
		defer c.Close()
		s := newStagedSet(t)
		s.stage(t, c, 1)
		stagedHeads(t, c, 3)
		commit(t, c, 1)
		s.readBack(t, c)
		check()
	})
	t.Run("abort", func(t *testing.T) {
		check := checkFrames(t)
		srv, addr := serveStripe(t, "127.0.0.1:0", storage.NewMem())
		c := NewClient(addr, ClientOptions{})
		defer c.Close()
		newStagedSet(t).stage(t, c, 1)
		if err := c.AbortEpoch(1); err != nil {
			t.Fatal(err)
		}
		if st := srv.Stats(); st.EpochsAborted != 1 {
			t.Fatalf("%d epochs aborted, want 1", st.EpochsAborted)
		}
		check()
	})
	t.Run("commit clears an abandoned epoch", func(t *testing.T) {
		check := checkFrames(t)
		srv, addr := serveStripe(t, "127.0.0.1:0", storage.NewMem())
		gone, c := NewClient(addr, ClientOptions{}), NewClient(addr, ClientOptions{})
		defer gone.Close()
		defer c.Close()
		newStagedSet(t).stage(t, gone, 1)
		gone.EndEpoch(1) // its frames stay staged on the server
		s := newStagedSet(t)
		s.stage(t, c, 2)
		commit(t, c, 2)
		srv.epochMu.Lock()
		left := len(srv.staged)
		srv.epochMu.Unlock()
		if left != 0 {
			t.Fatalf("%d epochs still staged after the commit", left)
		}
		check() // before any Close: the commit returned the abandoned frames
		s.readBack(t, c)
	})
	t.Run("checkpoint with an epoch staged", func(t *testing.T) {
		check := checkFrames(t)
		srv, addr := serveStripe(t, "127.0.0.1:0", storage.NewMem())
		c, other := NewClient(addr, ClientOptions{}), NewClient(addr, ClientOptions{})
		defer c.Close()
		defer other.Close()
		s := newStagedSet(t)
		s.stage(t, c, 1)
		if err := other.Sync(); err != nil { // a checkpoint re-journals the staged epoch
			t.Fatal(err)
		}
		if n := srv.Stats().Checkpoints; n != 1 {
			t.Fatalf("%d checkpoints, want 1", n)
		}
		commit(t, c, 1)
		s.readBack(t, c)
		check()
	})
	t.Run("redial and replay after a server bounce", func(t *testing.T) {
		check := checkFrames(t)
		stripe := storage.NewMem()
		srv, addr := serveStripe(t, "127.0.0.1:0", stripe)
		c := NewClient(addr, ClientOptions{})
		defer c.Close()
		s := newStagedSet(t)
		s.stage(t, c, 1)
		srv.Close() // the restart loses the staged epoch; the client's log keeps it
		stagedHeads(t, c, 0)
		serveStripe(t, addr, stripe)
		commit(t, c, 1)
		s.readBack(t, c)
		check()
	})
	t.Run("server closed with an epoch in flight", func(t *testing.T) {
		check := checkFrames(t)
		srv, addr := serveStripe(t, "127.0.0.1:0", storage.NewMem())
		c := NewClient(addr, ClientOptions{})
		defer c.Close()
		newStagedSet(t).stage(t, c, 1)
		srv.Close()
		c.EndEpoch(1)
		check()
	})
}

// TestSmallStagedWritesKeepTheirBytes: staged writes smaller than a pool
// class, back to back on one connection, each keep their own bytes until
// the commit applies them — no later request's payload lands over an
// earlier one's parked bytes.
func TestSmallStagedWritesKeepTheirBytes(t *testing.T) {
	check := checkFrames(t)
	_, addr := serveStripe(t, "127.0.0.1:0", storage.NewMem())
	c := NewClient(addr, ClientOptions{})
	defer c.Close()
	a, b := bytes.Repeat([]byte{0xA1}, pool.MinBuf/4), bytes.Repeat([]byte{0xB2}, pool.MinBuf/4)
	c.BeginEpoch(3)
	if _, err := c.WriteAt(a, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteAt(b, 1000); err != nil {
		t.Fatal(err)
	}
	commit(t, c, 3)
	got := make([]byte, 1000+len(b))
	if _, err := c.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, len(got))
	copy(want, a)
	copy(want[1000:], b)
	if !bytes.Equal(got, want) {
		t.Fatal("a staged write's bytes changed before its commit")
	}
	check()
}

// TestClientReadAtInPlace: ReadAt reads its response straight into p,
// so what must not reach p does not — an error response, and a response
// longer than p, which drops the connection — and a read across the end
// of the stripe fills p, with zeros past the end, as an offset list's
// entry does.
func TestClientReadAtInPlace(t *testing.T) {
	_, addr := serveStripe(t, "127.0.0.1:0", storage.NewMem())
	c := NewClient(addr, ClientOptions{})
	defer c.Close()
	if _, err := c.WriteAt([]byte("0123456789"), 0); err != nil {
		t.Fatal(err)
	}
	untouched := func(p []byte) bool { return bytes.Count(p, []byte{0xEE}) == len(p) }

	p := bytes.Repeat([]byte{0xEE}, 16)
	if _, err := c.ReadAt(p, -1); !errors.Is(err, storage.ErrPermanent) {
		t.Fatalf("read at -1: err = %v, want ErrPermanent", err)
	}
	if !untouched(p) {
		t.Fatal("an error response wrote into p")
	}

	n, err := c.ReadAt(p, 4)
	if n != len(p) || err != nil || string(p) != "456789"+string(make([]byte, 10)) {
		t.Fatalf("read across the end: n=%d err=%v p=%q, want %d, nil, \"456789\" and zeros", n, err, p, len(p))
	}
}

// TestClientReadAtvShortSegments: an offset-list read of many short
// segments, each response longer than the connection's read buffer, lands
// each segment's bytes in its own buffer.
func TestClientReadAtvShortSegments(t *testing.T) {
	_, addr := serveStripe(t, "127.0.0.1:0", storage.NewMem())
	c := NewClient(addr, ClientOptions{})
	defer c.Close()
	const runs, run = 4 * MaxListRuns, 512
	img := make([]byte, 2*runs*run)
	for i := range img {
		img[i] = byte(i*7 + i>>9)
	}
	if _, err := c.WriteAt(img, 0); err != nil {
		t.Fatal(err)
	}
	segs := make([]storage.Segment, runs)
	for i := range segs {
		segs[i] = storage.Segment{Off: int64(2 * i * run), Buf: make([]byte, run)}
	}
	if err := c.ReadAtv(segs); err != nil {
		t.Fatal(err)
	}
	for i, s := range segs {
		if !bytes.Equal(s.Buf, img[s.Off:s.Off+run]) {
			t.Fatalf("segment %d at %d differs", i, s.Off)
		}
	}
}

// TestClientCutsOversizeSegment: a segment longer than a frame carries
// goes out in several requests, each within the frame limit of both
// ends, direct and staged, and its bytes round-trip; each request's list
// is cut so that the pieces cover the segment exactly.
func TestClientCutsOversizeSegment(t *testing.T) {
	const limit = 256
	srv, err := New(Config{Backend: storage.NewMem(), Geom: storage.StripeGeom{Unit: 1 << 20, Count: 1}, maxFrame: limit})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	c := NewClient(ln.Addr().String(), ClientOptions{})
	c.maxFrame = limit
	defer c.Close()

	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	segs := []storage.Segment{{Off: 5, Buf: data[:10]}, {Off: 100, Buf: data[10:]}}
	whole, pieces := storage.NewMem(), storage.NewMem()
	if err := whole.WriteAtv(segs); err != nil {
		t.Fatal(err)
	}
	var covered int
	for rest := segs; len(rest) > 0; {
		var chunk []storage.Segment
		chunk, rest = clipList(rest, limit)
		if len(chunk) == 0 || headRoom+len(putList(nil, chunk))+totalLen(chunk) > limit {
			t.Fatalf("a request of %d entries and %d bytes, over the %d-byte limit or empty", len(chunk), totalLen(chunk), limit)
		}
		for _, s := range chunk {
			if &s.Buf[0] != &data[covered] {
				t.Fatalf("the piece at %d is not the batch's next bytes", s.Off)
			}
			covered += len(s.Buf)
		}
		if err := pieces.WriteAtv(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if covered != len(data) || !bytes.Equal(memBytes(pieces), memBytes(whole)) || len(segs[1].Buf) != 990 {
		t.Fatalf("the pieces cover %d of %d bytes, land elsewhere than the batch, or the batch was written", covered, len(data))
	}

	check := func(what string, want []byte) {
		t.Helper()
		got := make([]byte, len(want))
		before := c.Rounds()
		if _, err := c.ReadAt(got, 0); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the bytes read back differ", what)
		}
		if n := c.Rounds() - before; n < int64(len(want)/limit)+1 {
			t.Fatalf("%s: a %d-byte read went in %d requests", what, len(want), n)
		}
	}
	before := c.Rounds()
	if _, err := c.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if n := c.Rounds() - before; n < int64(len(data)/limit)+1 {
		t.Fatalf("a %d-byte write went in %d requests", len(data), n)
	}
	check("direct", data)

	staged := bytes.Repeat([]byte{'s'}, 700)
	c.BeginEpoch(3)
	if err := c.WriteAtv([]storage.Segment{{Off: 50, Buf: staged}}); err != nil {
		t.Fatal(err)
	}
	commit(t, c, 3)
	copy(data[50:], staged)
	check("staged", data)
}

// TestClientOverlongResponse: a response longer than its destination
// fails ErrPermanent without touching it and drops the connection, and
// the next request, on a fresh connection, succeeds.
func TestClientOverlongResponse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The first connection answers a read with two bytes too many, the
	// next ones answer it properly.
	go func() {
		for conn := 0; ; conn++ {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			fc := transport.NewFrameConn(nc, 0)
			for {
				seq, tag, req, err := readFrame(fc)
				if err != nil {
					break
				}
				_, n, _, _ := bounds{maxFrame: 1 << 20, maxLocal: 1 << 40}.getList(req, nil)
				resp := bytes.Repeat([]byte{'r'}, int(n))
				if conn == 0 {
					resp = append(resp, "xx"...)
				}
				if fc.WriteFrame(seq, tag, resp) != nil {
					break
				}
			}
			fc.Close()
		}
	}()
	c := NewClient(ln.Addr().String(), ClientOptions{})
	defer c.Close()
	p := bytes.Repeat([]byte{0xEE}, 8)
	if _, err := c.ReadAt(p, 0); !errors.Is(err, storage.ErrPermanent) {
		t.Fatalf("overlong response: err = %v, want ErrPermanent", err)
	}
	if bytes.Count(p, []byte{0xEE}) != len(p) {
		t.Fatal("an overlong response wrote into p")
	}
	c.mu.Lock()
	dropped := c.fc == nil
	c.mu.Unlock()
	if !dropped {
		t.Fatal("the connection was kept after an overlong response")
	}
	if n, err := c.ReadAt(p, 0); n != len(p) || err != nil || string(p) != "rrrrrrrr" {
		t.Fatalf("next read: n=%d err=%v p=%q", n, err, p)
	}
}

// TestTierRoundTripAllocBound: in steady state an epoch of a staged
// write and a staged offset-list write, then a read and an offset-list
// read, allocate nothing the size of a payload, on either side of the wire:
// write requests and staged payloads are pooled frames, other request
// payloads share one buffer per connection, and responses are read into
// their destination.
func TestTierRoundTripAllocBound(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector instrumentation allocates, and sync.Pool drops buffers under it")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC would empty the pool
	const payload = 64 << 10
	srv, addr := serveStripe(t, "127.0.0.1:0", storage.NewMem())
	srv.checkpointAt = 1 // every commit resets the journal: it does not grow
	c := NewClient(addr, ClientOptions{})
	defer c.Close()
	data := bytes.Repeat([]byte{7}, payload)
	buf := make([]byte, payload)
	wsegs := []storage.Segment{{Off: 0, Buf: data[:payload/2]}, {Off: payload, Buf: data[payload/2:]}}
	rsegs := []storage.Segment{{Off: 0, Buf: buf[:payload/2]}, {Off: payload, Buf: buf[payload/2:]}}
	epoch := uint64(0)
	round := func() {
		epoch++
		c.BeginEpoch(epoch)
		if _, err := c.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteAtv(wsegs); err != nil {
			t.Fatal(err)
		}
		if err := c.SealEpoch(epoch); err != nil {
			t.Fatal(err)
		}
		if err := c.CommitEpoch(epoch); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		if err := c.ReadAtv(rsegs); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		round() // warm the pool, the connection's buffers and the stripe
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, round)
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("%.0f allocations, %d bytes per round", allocs, perRound)
	if perRound >= payload/8 {
		t.Fatalf("a round allocates %d bytes: something the size of a %d-byte payload is allocated", perRound, payload)
	}
	// What a round allocates is the seal's response on the client, and on
	// the server each staged request's place in its epoch (its segments
	// and its frame, two each) and the commit's range lock: none of it per
	// byte or per segment, and nothing for a write request's head, which
	// is pooled, nor its data, which goes out from the caller's memory.
	if allocs > maxRoundAllocs {
		t.Fatalf("a round allocates %.0f times, want at most %d", allocs, maxRoundAllocs)
	}
}

// maxRoundAllocs bounds TestTierRoundTripAllocBound's allocations per
// round.
const maxRoundAllocs = 6
