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
// program runs against it.  Against the same access staged
// (DisableProgram), over either transport, the world sends exactly the
// self-destined data messages fewer and exactly their payload less,
// packed or lent — no
// tagCollData message has its source for destination; everything else —
// plan, vote, the chunks for the other rank — is the same traffic.
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

	run := func(staged, tcp, contig bool) ([]byte, mpi.Stats) {
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
			f, err := Open(p, sh, Options{CollBufSize: collBuf, DisableProgram: staged})
			if err != nil {
				panic(err)
			}
			defer f.Close()
			if err := f.SetView(0, datatype.Byte, noncontigTypeP(p.Rank(), P, blockcount, blocklen)); err != nil {
				panic(err)
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
		if got, want := staged.Messages-fused.Messages, ops*P*selfWindows; got != want {
			t.Errorf("tcp=%v: fused sends %d messages fewer than staged (%d vs %d), want the %d self-destined chunks",
				tcp, got, fused.Messages, staged.Messages, want)
		}
		// A contiguous share is lent, not packed: in-process its bytes are
		// LentBytes, not Bytes, on either side of the comparison.
		payload := func(s mpi.Stats) int64 { return s.Bytes + s.LentBytes }
		if got, want := payload(staged)-payload(fused), ops*P*selfBytes; got != want {
			t.Errorf("tcp=%v: fused sends %d payload bytes less than staged (%d vs %d), want the %d self-destined bytes",
				tcp, got, payload(fused), payload(staged), want)
		}
	}
}

// TestLentSharesCrossNoFabricCopy pins the loan in counted work.  A
// two-rank write of the vec16k shape — 16 KiB runs interleaved in the
// file, every other 16 KiB in memory — lends each rank's remote half to
// the other's IOP; the same data from memory of 8-byte pieces packs it.
// Both sends the same messages, and the own half is fused either way.
// In-process the lent bytes are LentBytes, not Bytes — exactly the
// remote halves, received as they were lent — and the file is the same;
// over TCP they cross the socket and count in Bytes like the packed
// ones, and the wire carries the same bytes.
func TestLentSharesCrossNoFabricCopy(t *testing.T) {
	defer testutil.LeakCheck(t)()
	const P, runs, run = 2, 8, 16384
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
			f, err := Open(p, sh, Options{CollBufSize: 64 << 10, Pool: pool.NewChecked()})
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
	for _, tcp := range []bool{false, true} {
		lentFile, lent := run1(tcp, true)
		packedFile, packed := run1(tcp, false)
		if !bytes.Equal(lentFile, packedFile) {
			t.Fatalf("tcp=%v: the lent and the packed write leave different files", tcp)
		}
		shares := int64(P) * d / 2
		wantLent := map[bool]int64{false: shares, true: 0}[tcp]
		if lent.Messages != packed.Messages || lent.LentBytes != wantLent || lent.LentBytesReceived != wantLent ||
			packed.Bytes-lent.Bytes != wantLent || packed.LentBytes != 0 {
			t.Errorf("tcp=%v: lent write %+v, packed %+v: want the same messages and %d bytes lent, not sent",
				tcp, lent, packed, wantLent)
		}
		if lent.WireBytesSent != packed.WireBytesSent {
			t.Errorf("tcp=%v: %d wire bytes lent, %d packed", tcp, lent.WireBytesSent, packed.WireBytesSent)
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
