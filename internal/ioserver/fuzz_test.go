package ioserver

import (
	"encoding/binary"
	"net"
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
// real op, both ends of the reserved range, and tags outside it.
var fuzzOps = []int{
	opRead, opWrite, opReadv, opWritev, opSize, opTruncate, opSync,
	opRegister, opViewRead, opViewWrite, opStats, opErr,
	transport.TagServerFirst, transport.TagServerLast, 0, 1, -1, -1000,
}

var fuzzSrv struct {
	once sync.Once
	addr string
}

// fuzzServer starts the shared fuzz target once per process: stripe 0
// of a 2-way layout over a pre-seeded Mem, tiny frame limit, tiny view
// cache (so eviction/stale paths are reachable with few requests).
func fuzzServer(f *testing.F) string {
	f.Helper()
	fuzzSrv.once.Do(func() {
		be := storage.NewMem()
		if _, err := be.WriteAt(make([]byte, 1<<16), 0); err != nil {
			f.Fatal(err)
		}
		srv, err := New(Config{
			Backend:   be,
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
		fuzzSrv.addr = ln.Addr().String()
		go srv.Serve(ln)
		// The server lives for the whole fuzz process; worker processes
		// each start their own.
	})
	return fuzzSrv.addr
}

// seedReq encodes one op for the structured phase: op selector byte,
// payload length byte, payload.
func seedReq(opIdx byte, payload []byte) []byte {
	return append([]byte{opIdx, byte(len(payload))}, payload...)
}

func vs(vals ...int64) []byte {
	var b []byte
	for _, v := range vals {
		b = putV(b, v)
	}
	return b
}

func FuzzServerRequest(f *testing.F) {
	ft, err := datatype.Vector(4, 2, 8, datatype.Byte)
	if err != nil {
		f.Fatal(err)
	}
	reg := append(putV(nil, 0), datatype.Encode(ft)...)

	// One seed per interesting shape; indexes into fuzzOps.
	f.Add(seedReq(0, vs(0, 16)))                                // valid read
	f.Add(seedReq(0, vs(-5, 16)))                               // negative offset
	f.Add(seedReq(0, vs(0)))                                    // truncated: missing length field
	f.Add(seedReq(0, vs(0, fuzzMaxFrame*2)))                    // response would exceed frame
	f.Add(seedReq(1, append(vs(8), []byte("hello")...)))        // valid write
	f.Add(seedReq(2, vs(2, 0, 8, 64, 8)))                       // valid 2-run readv
	f.Add(seedReq(2, vs(300, 0, 8)))                            // list over MaxListRuns
	f.Add(seedReq(2, vs(1, 0)))                                 // truncated list entry
	f.Add(seedReq(3, append(vs(1, 0, 4), 'a', 'b')))            // writev length mismatch
	f.Add(seedReq(4, nil))                                      // size
	f.Add(seedReq(5, vs(-1)))                                   // negative truncate
	f.Add(seedReq(7, reg))                                      // valid view registration
	f.Add(seedReq(7, append(vs(3), 0xff, 0xfe, 0x17)))          // garbage datatype tree
	f.Add(seedReq(8, vs(99, 0, 64)))                            // stale handle
	f.Add(seedReq(9, vs(99, 0, 64)))                            // stale handle, write
	f.Add(seedReq(8, vs(1, -4, 64)))                            // negative view range
	f.Add(seedReq(8, vs(1, 0, int64(fuzzMaxFrame)*4)))          // oversized view range
	f.Add(seedReq(14, vs(0)))                                   // unknown op (tag 0)
	f.Add(seedReq(13, nil))                                     // reserved tag with no op behind it
	f.Add(append(seedReq(7, reg), seedReq(8, vs(1, 0, 16))...)) // register then use
	// Register, then read a range whose file offsets would wrap int64.
	f.Add(append(seedReq(7, reg), seedReq(8, vs(1, 1<<62, 1<<62+16))...))
	// Raw-phase shapes: a hostile length header (payload length field
	// far beyond MaxFrame) and assorted garbage.
	hostile := make([]byte, 12)
	binary.LittleEndian.PutUint32(hostile[0:4], 0xfffffff0)
	f.Add(hostile)
	f.Add([]byte("\x00\x01\x02\x03garbage that is not a frame at all"))

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
			rseq, rtag, rpayload, err := fc.ReadFrame()
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
				case classTransient, classPermanent, classStale, classBad:
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
		rseq, rtag, rpayload, err := hfc.ReadFrame()
		if err != nil || rseq != 7 || rtag != opSize {
			t.Fatalf("health check failed: seq=%d tag=%d err=%v", rseq, rtag, err)
		}
		// (A fuzzed opTruncate may legitimately have shrunk the backing
		// store, so only decodability and non-negativity are asserted.)
		if size, _, err := getV(rpayload); err != nil || size < 0 {
			t.Fatalf("health-check size %d err=%v", size, err)
		}
		hfc.Close()
	})
}
