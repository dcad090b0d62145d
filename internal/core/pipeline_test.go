package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/datatype"
	"repro/internal/flatten"
	"repro/internal/mpi"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// collScenario runs one partitioned collective write+read on be and
// returns the resulting file bytes, the per-rank read-backs, and the
// summed Stats of all ranks.  off starts the access mid-filetype so
// some windows are only partially covered (exercising the RMW
// pre-read).
func collScenario(t *testing.T, be storage.Backend, eng Engine, P int, blockcount, blocklen, off int64) ([]byte, [][]byte, Stats) {
	t.Helper()
	sh := NewShared(be)
	opts := Options{
		Engine:      eng,
		CollBufSize: 192, // several windows per IOP domain
	}
	d := blockcount*blocklen - off
	reads := make([][]byte, P)
	stats := make([]Stats, P)
	_, err := mpi.Run(P, func(p *mpi.Proc) {
		f, err := Open(p, sh, opts)
		if err != nil {
			panic(err)
		}
		defer f.Close()
		if err := f.SetView(0, datatype.Byte, noncontigTypeP(p.Rank(), P, blockcount, blocklen)); err != nil {
			panic(err)
		}
		data := pattern(p.Rank(), d)
		if _, err := f.WriteAtAll(off, d, datatype.Byte, data); err != nil {
			panic(err)
		}
		got := make([]byte, d)
		if _, err := f.ReadAtAll(off, d, datatype.Byte, got); err != nil {
			panic(err)
		}
		if !bytes.Equal(got, data) {
			panic("collective round trip mismatch")
		}
		reads[p.Rank()] = got
		stats[p.Rank()] = f.Stats
	})
	if err != nil {
		t.Fatalf("engine %v: %v", eng, err)
	}
	file := make([]byte, be.Size())
	if err := storage.ReadFull(be, file, 0); err != nil {
		t.Fatalf("reading back file: %v", err)
	}
	var sum Stats
	for _, s := range stats {
		sum.SieveReads += s.SieveReads
		sum.SieveWrites += s.SieveWrites
		sum.PreReadsSkipped += s.PreReadsSkipped
		sum.WindowsOverlapped += s.WindowsOverlapped
		sum.StorageNs += s.StorageNs
		sum.ExchangeNs += s.ExchangeNs
		sum.CopyNs += s.CopyNs
	}
	return file, reads, sum
}

// TestCollectiveBackendMatrix checks that collective writes and reads
// produce byte-identical files across both engines and the Mem,
// Throttled, Striped, and (quiescent) Faulty backends.
func TestCollectiveBackendMatrix(t *testing.T) {
	const (
		P          = 3
		blockcount = 40
		blocklen   = 16
		off        = 96 // start mid-filetype: forces partial windows
	)
	backends := map[string]func() storage.Backend{
		"mem": func() storage.Backend { return storage.NewMem() },
		"throttled": func() storage.Backend {
			return storage.NewThrottled(storage.NewMem(), 1<<30, 1<<30, 2*time.Microsecond)
		},
		"striped": func() storage.Backend {
			s, err := storage.NewStriped(64, storage.NewMem(), storage.NewMem(), storage.NewMem())
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"faulty": func() storage.Backend { return storage.NewFaulty(storage.NewMem()) },
	}

	var refFile []byte
	var refReads [][]byte
	for name, mk := range backends {
		for _, eng := range []Engine{Listless, ListBased} {
			file, reads, st := collScenario(t, mk(), eng, P, blockcount, blocklen, off)
			if st.WindowsOverlapped == 0 {
				t.Errorf("%s/%v: overlapped no windows", name, eng)
			}
			if refFile == nil {
				refFile, refReads = file, reads
				continue
			}
			if !bytes.Equal(file, refFile) {
				t.Errorf("%s/%v: file differs from reference", name, eng)
			}
			for r := range reads {
				if !bytes.Equal(reads[r], refReads[r]) {
					t.Errorf("%s/%v: rank %d read-back differs", name, eng, r)
				}
			}
		}
	}
}

// TestPipelinedFaultPropagates injects a write fault and checks the
// pipelined window loop surfaces it as an agreed error on every rank
// instead of hanging or panicking (the background write-back must hand
// the error to the drain, and error agreement must broadcast it).
func TestPipelinedFaultPropagates(t *testing.T) {
	for _, eng := range []Engine{Listless, ListBased} {
		checkLeaks := testutil.LeakCheck(t)
		fb := storage.NewFaulty(storage.NewMem())
		sh := NewShared(fb)
		const P = 4
		errs := make([]error, P)
		_, err := mpi.RunWithOptions(P, mpi.RunOptions{StallTimeout: watchdogTimeout}, func(p *mpi.Proc) {
			f, err := Open(p, sh, Options{Engine: eng, CollBufSize: 128})
			if err != nil {
				panic(err)
			}
			if err := f.SetView(0, datatype.Byte, noncontigTypeP(p.Rank(), P, 32, 16)); err != nil {
				panic(err)
			}
			if p.Rank() == 0 {
				fb.FailWrites(2)
			}
			p.Barrier()
			d := int64(32 * 16)
			_, errs[p.Rank()] = f.WriteAtAll(0, d, datatype.Byte, pattern(p.Rank(), d))
		})
		if err != nil {
			t.Fatalf("engine %v: %v", eng, err)
		}
		// The count trigger fires on whichever IOP issues the second
		// write, so the agreed rank is scheduling-dependent — but all
		// ranks must agree on it.
		first, ok := AsCollectiveError(errs[0])
		if !ok {
			t.Fatalf("engine %v: rank 0 returned %v, want a CollectiveError", eng, errs[0])
		}
		requireAgreement(t, fmt.Sprintf("engine %v", eng), errs, first.Rank, PhaseIOPWindow)
		checkLeaks()
	}
}

// TestDecodeTuplesCorrupt exercises the hardened access-list decoder.
func TestDecodeTuplesCorrupt(t *testing.T) {
	good := make([]byte, 2*flatten.TupleBytes)
	putInt64(good[0:], 10)
	putInt64(good[8:], 4)
	putInt64(good[16:], 30)
	putInt64(good[24:], 2)
	l, err := decodeTuples(good)
	if err != nil {
		t.Fatalf("valid payload: %v", err)
	}
	want := flatten.List{{Off: 10, Len: 4}, {Off: 30, Len: 2}}
	if len(l) != 2 || l[0] != want[0] || l[1] != want[1] {
		t.Fatalf("decoded %v, want %v", l, want)
	}

	if _, err := decodeTuples(good[:flatten.TupleBytes+3]); !errors.Is(err, ErrCorruptAccessList) {
		t.Errorf("truncated payload: got %v, want ErrCorruptAccessList", err)
	}

	neg := make([]byte, flatten.TupleBytes)
	putInt64(neg[0:], 5)
	putInt64(neg[8:], -1)
	if _, err := decodeTuples(neg); !errors.Is(err, ErrCorruptAccessList) {
		t.Errorf("negative length: got %v, want ErrCorruptAccessList", err)
	}

	if l, err := decodeTuples(nil); err != nil || len(l) != 0 {
		t.Errorf("empty payload: got %v, %v", l, err)
	}
}
