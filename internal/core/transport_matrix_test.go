package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datatype"
	"repro/internal/fotf"
	"repro/internal/mpi"
	"repro/internal/pool"
	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// Transport-matrix tests: the same 4-rank collective I/O must behave
// identically whether ranks exchange through the in-process loopback or
// over real TCP sockets — byte-identical file contents, same fault
// agreement, and no goroutine or file-descriptor leaks.

// runCollectiveOver runs the standard 4-rank non-contiguous collective
// write + read-back over the given endpoints and returns the file bytes
// and the world's message accounting.
func runCollectiveOver(t *testing.T, eng Engine, eps []transport.Transport) ([]byte, mpi.Stats) {
	t.Helper()
	const P = 4
	const blockcount, blocklen = 16, 8
	d := int64(blockcount * blocklen)
	be := storage.NewMem()
	sh := NewShared(be)
	comm, err := mpi.RunOver(eps, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
		f, err := Open(p, sh, Options{Engine: eng, CollBufSize: 128})
		if err != nil {
			panic(err)
		}
		defer f.Close()
		if err := f.SetView(0, datatype.Byte, noncontigTypeP(p.Rank(), P, blockcount, blocklen)); err != nil {
			panic(err)
		}
		data := pattern(p.Rank(), d)
		if _, err := f.WriteAtAll(0, d, datatype.Byte, data); err != nil {
			panic(err)
		}
		got := make([]byte, d)
		if _, err := f.ReadAtAll(0, d, datatype.Byte, got); err != nil {
			panic(err)
		}
		if !bytes.Equal(got, data) {
			panic(fmt.Sprintf("rank %d: collective read-back mismatch", p.Rank()))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return be.Bytes(), comm
}

// TestTransportMatrixByteIdentical is the acceptance criterion: for both
// engines, the same collective write produces byte-identical file
// contents over the in-process loopback and over TCP, and the wire
// accounting separates the two: every byte a TCP world sends it also
// receives, and the loopback puts none on a wire.
func TestTransportMatrixByteIdentical(t *testing.T) {
	for _, eng := range []Engine{ListBased, Listless} {
		t.Run(eng.String(), func(t *testing.T) {
			defer testutil.LeakCheck(t)()
			fdBefore := testutil.FDCount(t)

			loop, loopComm := runCollectiveOver(t, eng, transport.NewLoopback(4))
			eps, err := transport.NewLocalTCPWorld(4, transport.TCPConfig{})
			if err != nil {
				t.Fatal(err)
			}
			tcp, tcpComm := runCollectiveOver(t, eng, eps)

			if len(loop) == 0 {
				t.Fatal("empty file from loopback run")
			}
			if !bytes.Equal(loop, tcp) {
				t.Fatalf("file contents differ between transports (%d vs %d bytes)", len(loop), len(tcp))
			}
			if loopComm.Messages == 0 || loopComm.Bytes == 0 || tcpComm.Messages == 0 || tcpComm.Bytes == 0 {
				t.Errorf("no exchange traffic recorded: loopback %+v, tcp %+v", loopComm, tcpComm)
			}
			if loopComm.WireBytesSent != 0 || loopComm.WireBytesRecv != 0 {
				t.Errorf("loopback wire bytes sent/recv = %d/%d, want 0", loopComm.WireBytesSent, loopComm.WireBytesRecv)
			}
			if tcpComm.WireBytesSent == 0 || tcpComm.WireBytesSent != tcpComm.WireBytesRecv {
				t.Errorf("tcp wire bytes sent/recv = %d/%d, want equal and > 0", tcpComm.WireBytesSent, tcpComm.WireBytesRecv)
			}
			if fdBefore >= 0 {
				if fdAfter := testutil.FDCount(t); fdAfter > fdBefore {
					t.Errorf("fd leak: %d before, %d after", fdBefore, fdAfter)
				}
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
	const (
		P          = 2
		blockcount = 64
		blocklen   = 8
		collBuf    = 128
	)
	d := int64(blockcount * blocklen)
	// The file range is P*d bytes in P domains of d bytes, each rank holds
	// d/P bytes in each: its own domain takes d/collBuf windows, per op.
	selfWindows, selfBytes := d/collBuf, d/P

	views, declined := make([]*datatype.Type, P), make([]*datatype.Type, P)
	for rank := range views {
		views[rank] = noncontigTypeP(rank, P, blockcount, blocklen)
		declined[rank] = declinedType(t, views[rank])
	}
	run := func(staged, tcp, contig bool) ([]byte, mpi.Stats) {
		// Each world installs both views and runs under the last, so that
		// the two worlds' SetView traffic is the same and their Stats
		// differ by what the collectives send.
		fts := [][]*datatype.Type{declined, views}
		if staged {
			fts[0], fts[1] = views, declined
		}
		eps := transport.NewLoopback(P)
		if tcp {
			var err error
			if eps, err = transport.NewLocalTCPWorld(P, transport.TCPConfig{}); err != nil {
				t.Fatal(err)
			}
		}
		be := storage.NewMem()
		sh := NewShared(be)
		comm, err := mpi.RunOver(eps, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
			f, err := Open(p, sh, Options{CollBufSize: collBuf})
			if err != nil {
				panic(err)
			}
			defer f.Close()
			for _, ft := range fts {
				if err := f.SetView(0, datatype.Byte, ft[p.Rank()]); err != nil {
					panic(err)
				}
			}
			elem, err := datatype.Resized(datatype.Double, 0, 2*blocklen)
			if err != nil {
				panic(err)
			}
			buf := pattern(p.Rank(), 2*d)
			if contig {
				// The same data bytes, packed.
				elem = datatype.Double
				for i := int64(0); i < blockcount; i++ {
					copy(buf[i*blocklen:(i+1)*blocklen], buf[2*i*blocklen:])
				}
				buf = buf[:d]
			}
			if _, err := f.WriteAtAll(0, blockcount, elem, buf); err != nil {
				panic(err)
			}
			got := make([]byte, len(buf))
			if _, err := f.ReadAtAll(0, blockcount, elem, got); err != nil {
				panic(err)
			}
			for i := range got {
				if (contig || i%(2*blocklen) < blocklen) && got[i] != buf[i] {
					panic(fmt.Sprintf("rank %d: read-back byte %d differs", p.Rank(), i))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return be.Bytes(), comm
	}

	var files [][]byte
	for _, c := range []struct{ tcp, contig bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		tcp := c.tcp
		fusedFile, fused := run(false, tcp, c.contig)
		stagedFile, staged := run(true, tcp, c.contig)
		if files = append(files, fusedFile, stagedFile); !bytes.Equal(fusedFile, files[0]) || !bytes.Equal(stagedFile, files[0]) {
			t.Fatalf("tcp=%v contig=%v: fused and staged files differ, or differ from the first cell's", tcp, c.contig)
		}
		const ops = 2 // one write, one read
		// Each domain holds as much of the other rank's data as of its own.
		wantMsgs, wantBytes, wantRefs := int64(ops*P*selfWindows), ops*P*selfBytes, int64(0)
		if !tcp {
			wantMsgs, wantBytes, wantRefs = 2*wantMsgs, 2*wantBytes, ops*P*(P-1)
		}
		if got := staged.Messages - fused.Messages; got != wantMsgs {
			t.Errorf("tcp=%v contig=%v: fused sends %d messages fewer than staged (%d vs %d), want the %d chunks it moves in place",
				tcp, c.contig, got, fused.Messages, staged.Messages, wantMsgs)
		}
		if got := staged.Bytes - fused.Bytes; got != wantBytes {
			t.Errorf("tcp=%v contig=%v: fused sends %d payload bytes less than staged (%d vs %d), want the %d bytes it moves in place",
				tcp, c.contig, got, fused.Bytes, staged.Bytes, wantBytes)
		}
		if fused.Refs != wantRefs || staged.Refs != wantRefs {
			t.Errorf("tcp=%v contig=%v: %d and %d loans fused and staged, want %d each", tcp, c.contig, fused.Refs, staged.Refs, wantRefs)
		}
	}
}

// TestLentSharesCrossNoFabricCopy pins the loan in counted work.  A
// two-rank write of the vec16k shape — 16 KiB runs interleaved in the
// file, every other 16 KiB in memory — and the same data from memory of
// 8-byte pieces; the own half is fused either way.  Over TCP each rank's
// remote half crosses the socket, written from the user buffer's 16 KiB
// slices or packed from the pieces: the same messages, payload bytes
// and wire bytes.  In-process both memory layouts are lent: one loan per
// rank replaces its chunk messages, and exactly the remote halves are
// missing from the payload, since the IOP reads them where they lie.  The
// file is the same in all four.
func TestLentSharesCrossNoFabricCopy(t *testing.T) {
	defer testutil.LeakCheck(t)()
	const P, runs, run, collBuf = 2, 8, 16384, 64 << 10
	d := int64(runs * run)
	run1 := func(tcp, lend bool) ([]byte, mpi.Stats) {
		eps := transport.NewLoopback(P)
		if tcp {
			var err error
			if eps, err = transport.NewLocalTCPWorld(P, transport.TCPConfig{}); err != nil {
				t.Fatal(err)
			}
		}
		be := storage.NewMem()
		sh := NewShared(be)
		comm, err := mpi.RunOver(eps, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
			f, err := Open(p, sh, Options{CollBufSize: collBuf, Pool: pool.NewChecked()})
			if err != nil {
				panic(err)
			}
			defer f.Close()
			disp, ft := stridedView(P, runs, run, run)(p.Rank())
			if err := f.SetView(disp, datatype.Byte, ft); err != nil {
				panic(err)
			}
			mt := holeyDouble()
			if lend {
				mt = hvecBytes(runs, run, 2*run)
			}
			count := d / mt.Size()
			buf := make([]byte, (count-1)*mt.Extent()+mt.TrueUB())
			fotf.UnpackCount(buf, pattern(p.Rank(), d), count, mt, 0)
			if _, err := f.WriteAtAll(0, count, mt, buf); err != nil {
				panic(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return be.Bytes(), comm
	}
	var files [][]byte
	comm := map[bool][2]mpi.Stats{}
	for _, tcp := range []bool{false, true} {
		slicesFile, fromSlices := run1(tcp, true)
		piecesFile, fromPieces := run1(tcp, false)
		files = append(files, slicesFile, piecesFile)
		comm[tcp] = [2]mpi.Stats{fromSlices, fromPieces}
	}
	for i := range files {
		if !bytes.Equal(files[i], files[0]) {
			t.Fatalf("write %d of (loopback, tcp) x (16 KiB slices, 8-byte pieces) leaves a different file", i)
		}
	}
	shares := int64(P) * d / 2
	// Each rank's half in the other's domain fills d/collBuf windows there.
	chunks, loans := int64(P*(P-1))*d/collBuf, int64(P*(P-1))
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

// TestFaultAgreementOverTCP mirrors TestFaultCollectiveWrite with the
// exchange on real sockets: error agreement is pure messages, so the
// agreed CollectiveError must survive the wire unchanged.
func TestFaultAgreementOverTCP(t *testing.T) {
	const P = 4
	for _, eng := range []Engine{Listless, ListBased} {
		t.Run(eng.String(), func(t *testing.T) {
			defer testutil.LeakCheck(t)()
			eps, err := transport.NewLocalTCPWorld(P, transport.TCPConfig{})
			if err != nil {
				t.Fatal(err)
			}
			fb := storage.NewFaulty(storage.NewMem())
			sh := NewShared(fb)
			errs := make([]error, P)
			_, err = mpi.RunOver(eps, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
				f, err := Open(p, sh, Options{Engine: eng, CollBufSize: 128})
				if err != nil {
					panic(err)
				}
				defer f.Close()
				ft := noncontigTypeP(p.Rank(), P, 16, 8)
				if err := f.SetView(0, datatype.Byte, ft); err != nil {
					panic(err)
				}
				if p.Rank() == 0 {
					fb.FailWrites(1)
				}
				p.Barrier()
				_, errs[p.Rank()] = f.WriteAtAll(0, 128, datatype.Byte, make([]byte, 128))
			})
			if err != nil {
				t.Fatalf("world error: %v", err)
			}
			requireAgreement(t, "tcp/"+eng.String(), errs, 0, PhaseIOPWindow)
		})
	}
}

// TestTransportSharedFileRanks models the -net process arrangement
// in-process: every rank holds its own OpenFileShared handle on one
// file (its own Shared state), exchanges over TCP, and the collective
// write still lands byte-identically because IOP file domains are
// disjoint.
func TestTransportSharedFileRanks(t *testing.T) {
	const P = 4
	const blockcount, blocklen = 16, 8
	d := int64(blockcount * blocklen)
	for _, eng := range []Engine{ListBased, Listless} {
		t.Run(eng.String(), func(t *testing.T) {
			defer testutil.LeakCheck(t)()
			oracle := collOracle(t, eng, P, blockcount, blocklen)

			path := filepath.Join(t.TempDir(), "shared.dat")
			eps, err := transport.NewLocalTCPWorld(P, transport.TCPConfig{})
			if err != nil {
				t.Fatal(err)
			}
			_, err = mpi.RunOver(eps, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
				fb, err := storage.OpenFileShared(path)
				if err != nil {
					panic(err)
				}
				defer fb.Close()
				f, err := Open(p, NewShared(fb), Options{Engine: eng, CollBufSize: 128})
				if err != nil {
					panic(err)
				}
				defer f.Close()
				if err := f.SetView(0, datatype.Byte, noncontigTypeP(p.Rank(), P, blockcount, blocklen)); err != nil {
					panic(err)
				}
				if _, err := f.WriteAtAll(0, d, datatype.Byte, pattern(p.Rank(), d)); err != nil {
					panic(err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, oracle) {
				t.Fatalf("shared-file contents differ from oracle (%d vs %d bytes)", len(got), len(oracle))
			}
		})
	}
}
