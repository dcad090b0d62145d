package ioserver

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/datatype"
	"repro/internal/storage"
	"repro/internal/transport"
)

// FuzzServerRequest throws hostile byte streams at a live server — both
// correctly framed requests with fuzzed payloads (truncated varint
// fields, oversized lists, unknown ops, stale handles, garbage datatype
// trees) and raw unframed garbage.  The server must never panic, never
// allocate beyond its MaxFrame bound (enforced structurally: the run
// uses a 4 KiB frame limit, so an over-allocation shows up as an
// obvious hang/OOM under the fuzzer), answer every well-framed bad
// request with a typed opErr frame, and stay serviceable afterwards.

const fuzzMaxFrame = 4096

// fuzzOps is the tag alphabet the structured phase draws from: every
// row of the protocol table, both ends of the reserved range, and tags
// outside it.
var fuzzOps = func() []int {
	var ops []int
	for _, op := range opTable {
		ops = append(ops, op.code)
	}
	return append(ops, transport.TagServerFirst, transport.TagServerLast, 0, 1, -1, -1000)
}()

// boundedMem is a Mem that refuses to grow past max bytes (a server has
// no capacity of its own to refuse by: ROADMAP item 7).
type boundedMem struct {
	*storage.Mem
	max int64
}

func (b boundedMem) fits(off, n int64) error {
	if off > b.max-n {
		return fmt.Errorf("boundedMem: [%d, +%d) exceeds %d: %w", off, n, b.max, storage.ErrPermanent)
	}
	return nil
}

func (b boundedMem) WriteAt(p []byte, off int64) (int, error) {
	if err := b.fits(off, int64(len(p))); err != nil {
		return 0, err
	}
	return b.Mem.WriteAt(p, off)
}

func (b boundedMem) WriteAtv(segs []storage.Segment) error {
	for _, sg := range segs {
		if err := b.fits(sg.Off, int64(len(sg.Buf))); err != nil {
			return err
		}
	}
	return b.Mem.WriteAtv(segs)
}

func (b boundedMem) Truncate(n int64) error {
	if err := b.fits(n, 0); err != nil {
		return err
	}
	return b.Mem.Truncate(n)
}

var fuzzSrv struct {
	once sync.Once
	addr string
	srv  *Server
}

// fuzzServer starts the shared fuzz target once per process: stripe 0
// of a 2-way layout over a pre-seeded Mem, tiny frame limit, tiny view
// cache (so eviction/stale paths are reachable with few requests).  The
// stripe is bounded at 1 MiB: a write the protocol has no reason to
// refuse may still lie gigabytes out, and the fuzzer must not find out
// whether this machine can allocate that.
func fuzzServer(f *testing.F) string {
	f.Helper()
	fuzzSrv.once.Do(func() {
		mem := storage.NewMem()
		if _, err := mem.WriteAt(make([]byte, 1<<16), 0); err != nil {
			f.Fatal(err)
		}
		srv, err := New(Config{
			Backend:   boundedMem{mem, 1 << 20},
			Geom:      storage.StripeGeom{Unit: 64, Count: 2},
			Index:     0,
			MaxFrame:  fuzzMaxFrame,
			ViewCache: 2,
		})
		if err != nil {
			f.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Fatal(err)
		}
		fuzzSrv.addr, fuzzSrv.srv = ln.Addr().String(), srv
		go srv.Serve(ln)
		// The server lives for the whole fuzz process; worker processes
		// each start their own.
	})
	return fuzzSrv.addr
}

// seedReq encodes one request for the structured phase: op selector
// byte (tag's place in fuzzOps), payload length byte, payload.
func seedReq(tag int, payload []byte) []byte {
	return append([]byte{byte(slices.Index(fuzzOps, tag)), byte(len(payload))}, payload...)
}

func vs(vals ...int64) []byte { return putVs(nil, vals...) }

func FuzzServerRequest(f *testing.F) {
	ft, err := datatype.Vector(4, 2, 8, datatype.Byte)
	if err != nil {
		f.Fatal(err)
	}
	reg := append(putV(nil, 0), datatype.Encode(ft)...)

	// One seed per interesting shape.
	f.Add(seedReq(opRead, vs(0, 16)))                                             // valid read
	f.Add(seedReq(opRead, vs(-5, 16)))                                            // negative offset
	f.Add(seedReq(opRead, vs(0)))                                                 // truncated: missing length field
	f.Add(seedReq(opRead, vs(0, fuzzMaxFrame*2)))                                 // response would exceed frame
	f.Add(seedReq(opWrite, append(vs(8), []byte("hello")...)))                    // valid write
	f.Add(seedReq(opReadv, vs(2, 0, 8, 64, 8)))                                   // valid 2-run readv
	f.Add(seedReq(opReadv, vs(300, 0, 8)))                                        // list over MaxListRuns
	f.Add(seedReq(opReadv, vs(1, 0)))                                             // truncated list entry
	f.Add(seedReq(opWritev, append(vs(1, 0, 4), 'a', 'b')))                       // writev length mismatch
	f.Add(seedReq(opSize, nil))                                                   // size
	f.Add(seedReq(opTruncate, vs(-1)))                                            // negative truncate
	f.Add(seedReq(opRegister, reg))                                               // valid view registration
	f.Add(seedReq(opRegister, append(vs(3), 0xff, 0xfe, 0x17)))                   // garbage datatype tree
	f.Add(seedReq(opViewRead, vs(99, 0, 64)))                                     // stale handle
	f.Add(seedReq(opViewWrite, vs(99, 0, 64)))                                    // stale handle, write
	f.Add(seedReq(opViewRead, vs(1, -4, 64)))                                     // negative view range
	f.Add(seedReq(opViewRead, vs(1, 0, int64(fuzzMaxFrame)*4)))                   // oversized view range
	f.Add(seedReq(0, vs(0)))                                                      // unknown op (tag 0)
	f.Add(seedReq(transport.TagServerLast, nil))                                  // reserved tag with no op behind it
	f.Add(append(seedReq(opRegister, reg), seedReq(opViewRead, vs(1, 0, 16))...)) // register then use
	// Register, then read a range whose file offsets would wrap int64.
	f.Add(append(seedReq(opRegister, reg), seedReq(opViewRead, vs(1, 1<<62, 1<<62+16))...))
	// Raw-phase shapes: a hostile length header (payload length field
	// far beyond MaxFrame) and assorted garbage.
	hostile := make([]byte, 12)
	binary.LittleEndian.PutUint32(hostile[0:4], 0xfffffff0)
	f.Add(hostile)
	f.Add([]byte("\x00\x01\x02\x03garbage that is not a frame at all"))
	// Extents no stripe has (ROADMAP item 7's panic: a write whose end
	// no allocation can hold, as the fuzzer found it; a list entry ending
	// past MaxInt64; a truncate to 2^62).
	f.Add([]byte("\t\x01\xc6\x01\xf4\xf4\xf4\xf4\xf4\xf4\xf9\x80\x15"))
	f.Add(seedReq(opWritev, append(vs(1, math.MaxInt64-1, 2), 'a', 'b')))
	f.Add(seedReq(opTruncate, vs(1<<62)))
	// The epoch ops: a staged write, sealed and aborted; a staged list
	// whose lengths disagree with its payload; a staged view write; a
	// commit naming an incarnation that is not the server's; a seal of
	// an epoch never staged.
	stage := seedReq(opStageWrite, append(vs(3, 8), []byte("hello")...))
	f.Add(append(append(stage, seedReq(opEpochSeal, vs(3))...), seedReq(opEpochAbort, vs(3))...))
	f.Add(seedReq(opStageWritev, append(vs(3, 1, 0, 4), 'a', 'b')))
	f.Add(append(seedReq(opRegister, reg), seedReq(opStageViewWrite, append(vs(3, 1, 0, 2), 'a', 'b'))...))
	f.Add(append(stage, seedReq(opEpochCommit, vs(3, 12345))...))
	f.Add(seedReq(opEpochSeal, vs(99)))
	f.Add(seedReq(opStageWrite, vs(0, 8))) // epoch id 0

	addr := fuzzServer(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		deadline := time.Now().Add(5 * time.Second)

		// Phase 1: well-framed requests with fuzzed payloads.  Every
		// request must draw exactly one response frame, tagged either
		// with the echoed op or opErr — and opErr payloads must carry a
		// known class.
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Skip("dial:", err)
		}
		conn.SetDeadline(deadline)
		fc := transport.NewFrameConn(conn, fuzzMaxFrame)
		rest := data
		for seq := 0; len(rest) > 0 && seq < 8; seq++ {
			op := fuzzOps[int(rest[0])%len(fuzzOps)]
			rest = rest[1:]
			n := 0
			if len(rest) > 0 {
				n = int(rest[0])
				rest = rest[1:]
			}
			if n > len(rest) {
				n = len(rest)
			}
			payload := rest[:n]
			rest = rest[n:]
			if err := fc.WriteFrame(seq, op, payload); err != nil {
				break
			}
			rseq, rtag, rpayload, err := readFrame(fc)
			if err != nil {
				// The server only drops the connection on framing
				// failures, which phase 1 never produces.
				t.Fatalf("no response to framed op %d: %v", op, err)
			}
			if rseq != seq {
				t.Fatalf("response seq %d for request %d", rseq, seq)
			}
			if rtag != op && rtag != opErr {
				t.Fatalf("response tag %d to op %d", rtag, op)
			}
			if rtag == opErr {
				class, _, err := getV(rpayload)
				if err != nil {
					t.Fatalf("opErr payload undecodable: %v", err)
				}
				switch class {
				case classTransient, classPermanent, classStale, classBad, classEpochRetry:
				default:
					t.Fatalf("opErr carries unknown class %d", class)
				}
			}
		}
		fc.Close()

		// Phase 2: the same bytes as a raw unframed stream.  The server
		// may answer or hang up, but must not crash; drain until EOF or
		// deadline.
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Skip("dial:", err)
		}
		raw.SetDeadline(deadline)
		raw.Write(data)
		if tc, ok := raw.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		drain := make([]byte, 4096)
		for {
			if _, err := raw.Read(drain); err != nil {
				break
			}
		}
		raw.Close()

		// Phase 3: the server must still answer a valid request.
		hc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal("server unreachable after fuzz input:", err)
		}
		hc.SetDeadline(deadline)
		hfc := transport.NewFrameConn(hc, fuzzMaxFrame)
		if err := hfc.WriteFrame(7, opSize, nil); err != nil {
			t.Fatal("health-check write:", err)
		}
		rseq, rtag, rpayload, err := readFrame(hfc)
		if err != nil || rseq != 7 || rtag != opSize {
			t.Fatalf("health check failed: seq=%d tag=%d err=%v", rseq, rtag, err)
		}
		// (A fuzzed opTruncate may legitimately have shrunk the backing
		// store, so only decodability and non-negativity are asserted.)
		if size, _, err := getV(rpayload); err != nil || size < 0 {
			t.Fatalf("health-check size %d err=%v", size, err)
		}
		hfc.Close()

		// Staged epochs stay parked until a commit, and a commit must name
		// the incarnation a seal reported, which no input can carry over:
		// drop them, so that the run's memory is bounded by one input's.
		srv := fuzzSrv.srv
		srv.epochMu.Lock()
		clear(srv.staged)
		err = srv.checkpoint()
		srv.epochMu.Unlock()
		if err != nil {
			t.Fatal("checkpoint after fuzz input:", err)
		}
	})
}
