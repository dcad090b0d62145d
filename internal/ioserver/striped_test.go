package ioserver

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// stripes is the Mem under each of the servers.
func stripes(servers []*Server) []*storage.Mem {
	mems := make([]*storage.Mem, len(servers))
	for i, srv := range servers {
		mems[i] = srv.cfg.Backend.(*storage.Mem)
	}
	return mems
}

func TestStripedPlacement(t *testing.T) {
	s, servers := startServers(t, 4, 2, nil)
	mems := stripes(servers)
	// Write 12 bytes: units 0,2 -> stripe 0; unit 1 -> stripe 1.
	data := []byte("abcdEFGHijkl")
	if _, err := s.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if got := string(mems[0].Bytes()); got != "abcdijkl" {
		t.Fatalf("stripe 0 = %q", got)
	}
	if got := string(mems[1].Bytes()); got != "EFGH" {
		t.Fatalf("stripe 1 = %q", got)
	}
	if s.Size() != 12 {
		t.Fatalf("size = %d", s.Size())
	}
	back := make([]byte, 12)
	if _, err := s.ReadAt(back, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatalf("read back %q", back)
	}
}

func TestStripedUnalignedAccess(t *testing.T) {
	s, _ := startServers(t, 8, 3, nil)
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i + 1)
	}
	if _, err := s.WriteAt(data, 5); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 100)
	if _, err := s.ReadAt(got, 5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("unaligned round trip failed")
	}
}

func TestStripedReadPastEnd(t *testing.T) {
	s, _ := startServers(t, 8, 2, nil)
	if _, err := s.WriteAt([]byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	n, err := s.ReadAt(buf, 1)
	if n != 2 || err != io.EOF || string(buf[:2]) != "bc" {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if n, err := s.ReadAt(buf, 50); n != 0 || err != io.EOF {
		t.Fatalf("far read = %d, %v", n, err)
	}
	if _, err := s.ReadAt(buf, -1); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestStripedTruncateAndSize(t *testing.T) {
	s, servers := startServers(t, 4, 2, nil)
	mems := stripes(servers)
	if err := s.Truncate(10); err != nil {
		t.Fatal(err)
	}
	// 10 bytes: stripe0 units 0,2 -> 4+2=6; stripe1 unit 1 -> 4.
	if mems[0].Size() != 6 || mems[1].Size() != 4 {
		t.Fatalf("stripe sizes = %d,%d", mems[0].Size(), mems[1].Size())
	}
	if s.Size() != 10 {
		t.Fatalf("size = %d", s.Size())
	}
	if err := s.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if s.Size() != 0 {
		t.Fatalf("size after truncate 0 = %d", s.Size())
	}
	if err := s.Truncate(-1); err == nil {
		t.Fatal("negative truncate accepted")
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStripedMatchesMem: a tier of random geometry behaves
// byte-identically to a plain Mem under a random sequence of scalar
// writes and zero-filled reads.
func TestQuickStripedMatchesMem(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		s, _, stop := serveTier(t, int64(1+r.Intn(16)), 1+r.Intn(4), nil)
		ref := storage.NewMem()
		for op := 0; op < 24; op++ {
			off := r.Int63n(256)
			n := 1 + r.Intn(64)
			if r.Intn(2) == 0 {
				data := make([]byte, n)
				r.Read(data)
				if _, err := s.WriteAt(data, off); err != nil {
					t.Fatal(err)
				}
				ref.WriteAt(data, off)
			} else {
				a := make([]byte, n)
				b := make([]byte, n)
				if err := storage.ReadFull(s, a, off); err != nil {
					t.Fatal(err)
				}
				storage.ReadFull(ref, b, off)
				if !bytes.Equal(a, b) {
					t.Fatalf("seed %d: read mismatch at %d+%d", seed, off, n)
				}
			}
			if s.Size() != ref.Size() {
				t.Fatalf("seed %d: size %d vs %d", seed, s.Size(), ref.Size())
			}
		}
		stop()
	}
}

// TestStripedScalarRequests: a scalar WriteAt spanning many stripe units
// costs one request per server it touches, and a ReadAt the same after
// one size request per server, which places the logical end: a read
// across it comes back short with io.EOF.
func TestStripedScalarRequests(t *testing.T) {
	const unit, servers = 64, 3
	s, _ := startServers(t, unit, servers, nil)
	rounds := func() []int64 {
		n := make([]int64, servers)
		for i, c := range s.Clients() {
			n[i] = c.Rounds()
		}
		return n
	}
	// cost runs access and requires each client to have sent want
	// requests for it.
	cost := func(what string, want []int64, access func() error) {
		t.Helper()
		before := rounds()
		if err := access(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for i, n := range rounds() {
			if n-before[i] != want[i] {
				t.Errorf("%s: server %d was sent %d requests, want %d", what, i, n-before[i], want[i])
			}
		}
	}
	data := make([]byte, 6*unit) // parts of 7 units, from offset unit/2
	for i := range data {
		data[i] = byte(i*13 + 1)
	}
	cost("a write of 7 units", []int64{1, 1, 1}, func() error {
		_, err := s.WriteAt(data, unit/2)
		return err
	})
	got := make([]byte, len(data))
	cost("a read of 7 units", []int64{2, 2, 2}, func() error {
		_, err := s.ReadAt(got, unit/2)
		return err
	})
	if !bytes.Equal(got, data) {
		t.Fatal("read back differs from what was written")
	}
	cost("a write within units 1 and 2", []int64{0, 1, 1}, func() error {
		_, err := s.WriteAt(data[:unit], unit+unit/2)
		return err
	})
	// The file ends inside unit 6, on server 0: a read of units 5 and 6
	// touches servers 2 and 0 for the bytes there are.
	end := int64(unit/2 + len(data))
	past := make([]byte, 2*unit)
	var n int
	cost("a read across the end", []int64{2, 1, 2}, func() (err error) {
		n, err = s.ReadAt(past, 5*unit)
		if err == io.EOF {
			err = nil
		} else if err == nil {
			t.Error("a read across the end reported no io.EOF")
		}
		return err
	})
	if want := end - 5*unit; int64(n) != want || !bytes.Equal(past[:n], data[5*unit-unit/2:]) {
		t.Fatalf("a read across the end returned %d bytes, want the %d up to the end", n, want)
	}
}
