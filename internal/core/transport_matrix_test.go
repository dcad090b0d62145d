package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/transport/transporttest"
)

// Transport-matrix tests: the same collective I/O must behave alike
// whether ranks exchange through the in-process loopback or over real TCP
// sockets — the oracle's bytes, the same fault agreement, and no goroutine
// or file-descriptor leaks.

// TestTransportMatrixByteIdentical is the acceptance criterion: for both
// engines, the same collective write leaves the oracle's bytes over the
// in-process loopback and over TCP, and the wire accounting separates the
// two: every byte a TCP world sends it also receives, and the loopback
// puts none on a wire.
func TestTransportMatrixByteIdentical(t *testing.T) {
	for _, eng := range []Engine{ListBased, Listless} {
		t.Run(eng.String(), func(t *testing.T) {
			defer testutil.LeakCheck(t)()
			fdBefore := testutil.FDCount(t)
			var comm [2]mpi.Stats
			for i, tcp := range []bool{false, true} {
				comm[i] = world{P: 4, tcp: tcp, opts: Options{Engine: eng, collBufSize: 128}}.roundTrip(t, access{view: fig4(4, 16, 8), d: 128}).comm
			}
			loop, tcp := comm[0], comm[1]
			if loop.Messages == 0 || loop.Bytes == 0 || tcp.Messages == 0 || tcp.Bytes == 0 {
				t.Errorf("no exchange traffic recorded: loopback %+v, tcp %+v", loop, tcp)
			}
			if loop.WireBytesSent != 0 || loop.WireBytesRecv != 0 {
				t.Errorf("loopback wire bytes sent/recv = %d/%d, want 0", loop.WireBytesSent, loop.WireBytesRecv)
			}
			if tcp.WireBytesSent == 0 || tcp.WireBytesSent != tcp.WireBytesRecv {
				t.Errorf("tcp wire bytes sent/recv = %d/%d, want equal and > 0", tcp.WireBytesSent, tcp.WireBytesRecv)
			}
			if fdAfter := testutil.FDCount(t); fdBefore >= 0 && fdAfter > fdBefore {
				t.Errorf("fd leak: %d before, %d after", fdBefore, fdAfter)
			}
		})
	}
}

// TestSelfShareStaysOffTheFabric pins the fused self share in counted
// work: in a two-rank collective of the vec8 shape (8-byte blocks,
// interleaved in the file, every other 8 bytes in memory) each rank is the
// IOP of half of its own data, and with both programs live that half is
// copied between user buffer and window — it is neither packed into a
// chunk nor sent.  The same holds for the c-nc form of the access, from
// contiguous memory: the user buffer is the chunk, and the fileview's
// program runs against it.  Against the same access staged, through
// fileviews that decline compilation, the two collectives over TCP send
// exactly the self-destined data messages fewer and exactly their payload
// less, packed or lent — no tagCollData message has its source for
// destination; everything else — plan, vote, the shares for the other
// rank — is the same traffic.
// In-process the other rank's half moves the same way, by the loan each
// rank sends the other's IOP — as many as the staged world's pack loans —
// so the fused world sends no data message at all.
func TestSelfShareStaysOffTheFabric(t *testing.T) {
	defer testutil.LeakCheck(t)()
	const P, blockcount, blocklen, collBuf = 2, 64, 8, 128
	d := int64(blockcount * blocklen)
	// The file range is P*d bytes in P domains of d bytes, each rank holds
	// d/P bytes in each: its own domain takes d/collBuf windows, per op.
	selfWindows, selfBytes := d/collBuf, d/P
	views := fig4(P, blockcount, blocklen)
	declined := declinedViews(t, P, views)
	for _, c := range []struct{ tcp, contig bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		mem := func(int) *datatype.Type { return holeyDouble() }
		if c.contig {
			mem = func(int) *datatype.Type { return datatype.Double }
		}
		var comm [2]mpi.Stats
		for i, staged := range []bool{false, true} {
			// Each world installs both views and runs under the last, so that
			// the two worlds' SetView traffic is the same and their Stats
			// differ by what the collectives send.
			fts := []viewFn{declined, views}
			if staged {
				fts[0], fts[1] = views, declined
			}
			comm[i] = world{P: P, tcp: c.tcp, opts: Options{collBufSize: collBuf}}.roundTrip(t, access{before: fts[0], view: fts[1], mem: mem, d: d}).comm
		}
		fused, staged := comm[0], comm[1]
		const ops = 2 // one write, one read
		// Each domain holds as much of the other rank's data as of its own.
		wantMsgs, wantBytes, wantRefs := int64(ops*P*selfWindows), ops*P*selfBytes, int64(0)
		if !c.tcp {
			wantMsgs, wantBytes, wantRefs = 2*wantMsgs, 2*wantBytes, ops*P*(P-1)
		}
		if got := staged.Messages - fused.Messages; got != wantMsgs {
			t.Errorf("%+v: fused sends %d messages fewer than staged (%d vs %d), want the %d chunks it moves in place",
				c, got, fused.Messages, staged.Messages, wantMsgs)
		}
		if got := staged.Bytes - fused.Bytes; got != wantBytes {
			t.Errorf("%+v: fused sends %d payload bytes less than staged (%d vs %d), want the %d bytes it moves in place",
				c, got, fused.Bytes, staged.Bytes, wantBytes)
		}
		if fused.Refs != wantRefs || staged.Refs != wantRefs {
			t.Errorf("%+v: %d and %d loans fused and staged, want %d each", c, fused.Refs, staged.Refs, wantRefs)
		}
	}
}

// TestLentSharesCrossNoFabricCopy pins the loan in counted work.  A
// two-rank write of 64-byte runs interleaved in the file — page-dense, so
// every window is buffered, where sparse ones would be moved by their
// owners and lend nothing — from every other 16 KiB in memory, and the
// same data from memory of 8-byte pieces; the own half is fused either
// way.  Over TCP each rank's remote half crosses the socket packed, from
// the user buffer's 16 KiB runs or from the pieces: the same messages,
// payload bytes and wire bytes.  In-process both memory layouts are lent:
// one loan per rank replaces its chunk messages, and exactly the remote
// halves are missing from the payload, since the IOP reads them where
// they lie.  The write and the read-back leave the oracle's bytes in all
// four.
func TestLentSharesCrossNoFabricCopy(t *testing.T) {
	defer testutil.LeakCheck(t)()
	const P, runs, run, collBuf, fileRun = 2, 8, 16384, 64 << 10, 64
	d := int64(runs * run)
	comm := map[bool][2]mpi.Stats{}
	for _, tcp := range []bool{false, true} {
		var c [2]mpi.Stats
		for i, mt := range []*datatype.Type{hvecBytes(runs, run, 2*run), holeyDouble()} {
			c[i] = world{P: P, tcp: tcp, checked: true, opts: Options{collBufSize: collBuf}}.roundTrip(t, access{view: stridedView(P, d/fileRun, fileRun, fileRun),
				d: d, mem: func(int) *datatype.Type { return mt }}).comm
		}
		comm[tcp] = c
	}
	shares := 2 * int64(P) * d / 2 // the remote halves, written and read
	// Each rank's half in the other's domain fills d/collBuf windows there.
	chunks, loans := 2*int64(P*(P-1))*d/collBuf, 2*int64(P*(P-1))
	for i, what := range []string{"16 KiB slices", "8-byte pieces"} {
		loop, tcp, first := comm[false][i], comm[true][i], comm[true][0]
		if tcp.Messages != first.Messages || tcp.Bytes != first.Bytes || tcp.WireBytesSent != first.WireBytesSent || tcp.Refs != 0 {
			t.Errorf("tcp, %s: %+v; want the same traffic as from the slices (%+v), and no loan", what, tcp, first)
		}
		if loop.Refs != loans || loop.Messages != tcp.Messages-chunks+loans || loop.Bytes != tcp.Bytes-shares || loop.WireBytesSent != 0 {
			t.Errorf("loopback, %s: %+v against tcp %+v: want %d loans for %d chunks, and the %d bytes of the remote halves not sent",
				what, loop, tcp, loans, chunks, shares)
		}
	}
}

// TestFaultAgreementOverTCP is TestFaultCollectiveWrite with the exchange
// on real sockets: error agreement is pure messages, so the agreed
// CollectiveError must survive the wire unchanged.
func TestFaultAgreementOverTCP(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.String(), func(t *testing.T) { faultCollectiveWrite(t, eng, true) })
	}
}

// TestFaultAgreementDelayedLink is the drain's schedule at P = 3 and 4:
// every frame rank 1 sends to rank P-1 lags (transporttest.Delay), and
// the first window write of a write, or read of a read, fails on rank
// P-1, so that rank 1's data frames to P-1 are still in flight when the
// collective fails.  The failure must be agreed on P-1, and the
// fault-free WriteAtAll after it must leave the flat oracle's bytes: no
// late frame of the failed collective may be taken by the next one.  Each
// rank has its own Shared and Faulty over one Mem, as OS-process ranks
// have.
func TestFaultAgreementDelayedLink(t *testing.T) {
	const blockcount, blocklen, d = 64, 8, 64 * 8
	for _, P := range []int{3, 4} {
		data := make([][]byte, P)
		for r := range data {
			data[r] = pattern(r, d)
		}
		o := flat(fig4(P, blockcount, blocklen), nil, 0, data)
		for _, eng := range engines {
			for _, write := range []bool{true, false} {
				op := map[bool]string{true: "write", false: "read"}[write]
				t.Run(fmt.Sprintf("P=%d/%v/%s", P, eng, op), func(t *testing.T) {
					defer testutil.LeakCheck(t)()
					errs := make([]error, P)
					res := world{P: P, tcp: true, backend: "faulty", checked: true, opts: Options{Engine: eng, collBufSize: 128}, link: func(eps []transport.Transport) {
						eps[1] = transporttest.Delay(eps[1], P-1, 10*time.Millisecond)
					}}.run(t, bytes.Repeat([]byte{background}, len(o.file)), func(r rank) {
						if err := r.f.SetView(0, datatype.Byte, noncontigTypeP(r.p.Rank(), P, blockcount, blocklen)); err != nil {
							panic(err)
						}
						if r.p.Rank() == P-1 {
							if write {
								r.fb.FailWrites(1)
							} else {
								r.fb.FailReads(1)
							}
						}
						buf := bytes.Repeat([]byte{0xEE}, d)
						if write {
							_, errs[r.p.Rank()] = r.f.WriteAtAll(0, d, datatype.Byte, buf)
						} else {
							_, errs[r.p.Rank()] = r.f.ReadAtAll(0, d, datatype.Byte, buf)
						}
						r.fb.Heal()
						if _, err := r.f.WriteAtAll(0, d, datatype.Byte, data[r.p.Rank()]); err != nil {
							panic(err)
						}
					})
					requireAgreement(t, fmt.Sprintf("P=%d/%v/%s", P, eng, op), errs, P-1, PhaseIOPWindow)
					if !bytes.Equal(res.file, o.file) {
						t.Fatalf("the fault-free write after the failed %s differs from the oracle", op)
					}
				})
			}
		}
	}
}

// TestCollectiveSendsTwoControlFrames: over TCP, a successful collective
// whose windows are all direct (tcp16k's geometry, scaled down: 16 KiB
// runs interleaved across the ranks, from memory with a hole after each)
// costs each rank the plan's exchange and the vote's, one frame to every
// peer each: 2(P-1) frames, every one a counted message, so none of them
// is a barrier's.
func TestCollectiveSendsTwoControlFrames(t *testing.T) {
	defer testutil.LeakCheck(t)()
	const n, run = 16, 16384
	for _, P := range []int{2, 3} {
		var eps []transport.Transport
		frames, msgs := make([][2]int64, P), make([][2]int64, P)
		world{P: P, tcp: true, link: func(e []transport.Transport) { eps = e }}.run(t, nil, func(r rank) {
			disp, ft := stridedView(P, n, run, run)(r.p.Rank())
			if err := r.f.SetView(disp, datatype.Byte, ft); err != nil {
				panic(err)
			}
			mt, buf := hvecBytes(n, run, 2*run), make([]byte, (n-1)*2*run+run)
			for j, write := range []bool{true, false} {
				// Between barriers, and with the barrier's frames flushed:
				// only the collective's own frames are counted.
				r.p.Barrier()
				eps[r.p.Rank()].Flush()
				f0, m0 := eps[r.p.Rank()].Stats().FramesSent, r.p.SentStats().Messages
				var err error
				if write {
					_, err = r.f.WriteAtAll(0, 1, mt, buf)
				} else {
					_, err = r.f.ReadAtAll(0, 1, mt, buf)
				}
				if err != nil {
					panic(err)
				}
				eps[r.p.Rank()].Flush()
				frames[r.p.Rank()][j] = eps[r.p.Rank()].Stats().FramesSent - f0
				msgs[r.p.Rank()][j] = r.p.SentStats().Messages - m0
				if r.f.Stats.SieveWrites+r.f.Stats.SieveReads != 0 {
					panic(fmt.Sprintf("rank %d: %d IOP windows; want every window direct", r.p.Rank(), r.f.Stats.SieveWrites+r.f.Stats.SieveReads))
				}
			}
		})
		want := int64(2 * (P - 1))
		for r := range frames {
			for j, op := range []string{"write", "read"} {
				if frames[r][j] != want || msgs[r][j] != want {
					t.Errorf("P=%d rank %d: the %s sent %d frames and %d messages; want %d of each", P, r, op, frames[r][j], msgs[r][j], want)
				}
			}
		}
	}
}

// TestTransportSharedFileRanks models the -net process arrangement
// in-process: every rank holds its own OpenFileShared handle on one
// file (its own Shared state) and exchanges over TCP, and the collective
// write and read-back still leave the oracle's bytes because IOP file
// domains are disjoint.
func TestTransportSharedFileRanks(t *testing.T) {
	for _, eng := range []Engine{ListBased, Listless} {
		t.Run(eng.String(), func(t *testing.T) {
			defer testutil.LeakCheck(t)()
			world{P: 4, tcp: true, backend: "shared-file", opts: Options{Engine: eng, collBufSize: 128}}.roundTrip(t, access{view: fig4(4, 16, 8), d: 16 * 8})
		})
	}
}
