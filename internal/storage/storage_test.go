package storage

import (
	"bytes"
	"io"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// memBytes reads a backend's whole contents (Mem's reads lock the spans
// they cover, so the copy is one no write is half-way through).
func memBytes(b Backend) []byte {
	p := make([]byte, b.Size())
	if err := ReadFull(b, p, 0); err != nil {
		panic(err)
	}
	return p
}

func TestMemReadWrite(t *testing.T) {
	m := NewMem()
	if n, err := m.WriteAt([]byte("hello"), 3); n != 5 || err != nil {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	if m.Size() != 8 {
		t.Fatalf("size = %d, want 8", m.Size())
	}
	buf := make([]byte, 8)
	if n, err := m.ReadAt(buf, 0); n != 8 || err != nil {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(buf, []byte("\x00\x00\x00hello")) {
		t.Fatalf("data = %q", buf)
	}
}

func TestMemReadPastEnd(t *testing.T) {
	m := NewMem()
	m.WriteAt([]byte("abc"), 0)
	buf := make([]byte, 10)
	n, err := m.ReadAt(buf, 1)
	if n != 2 || err != io.EOF {
		t.Fatalf("ReadAt = %d, %v; want 2, EOF", n, err)
	}
	if n, err := m.ReadAt(buf, 100); n != 0 || err != io.EOF {
		t.Fatalf("far ReadAt = %d, %v", n, err)
	}
	if _, err := m.ReadAt(buf, -1); err == nil {
		t.Fatal("negative offset must fail")
	}
	if _, err := m.WriteAt(buf, -1); err == nil {
		t.Fatal("negative write offset must fail")
	}
}

func TestMemTruncate(t *testing.T) {
	m := NewMem()
	m.WriteAt([]byte("abcdef"), 0)
	if err := m.Truncate(3); err != nil {
		t.Fatal(err)
	}
	if m.Size() != 3 {
		t.Fatalf("size = %d", m.Size())
	}
	// Growing truncate zero-fills, including previously truncated bytes.
	if err := m.Truncate(6); err != nil {
		t.Fatal(err)
	}
	got := memBytes(m)
	if !bytes.Equal(got, []byte("abc\x00\x00\x00")) {
		t.Fatalf("after regrow = %q", got)
	}
	if err := m.Truncate(-1); err == nil {
		t.Fatal("negative truncate must fail")
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestMemRefusesUnallocatableGrowth: an extent no allocation can hold is
// a permanent error from every call that grows the store, not a panic in
// make, and leaves the store as it was.
func TestMemRefusesUnallocatableGrowth(t *testing.T) {
	m := NewMem()
	m.WriteAt([]byte("abc"), 0)
	calls := map[string]func(off int64) error{
		"WriteAt": func(off int64) error { _, err := m.WriteAt([]byte("x"), off); return err },
		"WriteAtv": func(off int64) error {
			return m.WriteAtv([]Segment{{Off: 1, Buf: []byte("y")}, {Off: off, Buf: []byte("x")}})
		},
		"Truncate": func(off int64) error { return m.Truncate(off + 1) },
	}
	for name, call := range calls {
		for _, off := range []int64{memMaxSize, 1 << 52, math.MaxInt64 - 1} {
			if err := call(off); err == nil || IsTransient(err) {
				t.Errorf("%s reaching offset %d: err = %v, want a permanent error", name, off, err)
			}
		}
	}
	if got := string(memBytes(m)); got != "abc" {
		t.Fatalf("refused calls left the store holding %q", got)
	}
}

func TestMemConcurrentDisjointWrites(t *testing.T) {
	m := NewMem()
	m.Truncate(64 * 100)
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			block := bytes.Repeat([]byte{byte(i)}, 64)
			m.WriteAt(block, int64(i)*64)
		}(i)
	}
	wg.Wait()
	data := memBytes(m)
	for i := 0; i < 100; i++ {
		for j := 0; j < 64; j++ {
			if data[i*64+j] != byte(i) {
				t.Fatalf("block %d corrupted at %d", i, j)
			}
		}
	}
}

func TestFileBackend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "backend.dat")
	f, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte("data"), 10); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 14 {
		t.Fatalf("size = %d", f.Size())
	}
	buf := make([]byte, 4)
	if _, err := f.ReadAt(buf, 10); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "data" {
		t.Fatalf("read %q", buf)
	}
	if err := f.Truncate(5); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 5 {
		t.Fatalf("size after truncate = %d", f.Size())
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestReadFullZeroFills(t *testing.T) {
	m := NewMem()
	m.WriteAt([]byte{1, 2, 3}, 0)
	buf := []byte{9, 9, 9, 9, 9, 9}
	if err := ReadFull(m, buf, 1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{2, 3, 0, 0, 0, 0}) {
		t.Fatalf("buf = %v", buf)
	}
}

func TestThrottledLatencyAccumulates(t *testing.T) {
	m := NewMem()
	m.Truncate(4096)
	th := NewThrottled(m, 100*time.Microsecond)
	start := time.Now()
	buf := make([]byte, 8)
	for i := 0; i < 100; i++ {
		th.ReadAt(buf, 0)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("100 ops at 100us latency took %v; latency not charged", d)
	}
}

func TestInstrumented(t *testing.T) {
	m := NewMem()
	in := NewInstrumented(m)
	in.WriteAt(make([]byte, 100), 0)
	in.ReadAt(make([]byte, 40), 0)
	in.ReadAt(make([]byte, 60), 40)
	s := in.Stats()
	if s.Writes != 1 || s.BytesWritten != 100 || s.Reads != 2 || s.BytesRead != 100 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLockTableExcludesOverlaps(t *testing.T) {
	lt := NewLockTable()
	unlock := lt.Lock(0, 100)
	acquired := make(chan struct{})
	go func() {
		u := lt.Lock(50, 150) // overlaps; must wait
		close(acquired)
		u()
	}()
	select {
	case <-acquired:
		t.Fatal("overlapping lock acquired while held")
	case <-time.After(20 * time.Millisecond):
	}
	unlock()
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("lock never released to waiter")
	}
}

func TestLockTableAllowsDisjoint(t *testing.T) {
	lt := NewLockTable()
	u1 := lt.Lock(0, 10)
	done := make(chan struct{})
	go func() {
		u2 := lt.Lock(10, 20) // disjoint; must not block
		u2()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("disjoint lock blocked")
	}
	u1()
}

func TestLockTableStress(t *testing.T) {
	lt := NewLockTable()
	m := NewMem()
	m.Truncate(1000)
	var wg sync.WaitGroup
	// Concurrent RMW increments on overlapping ranges; with correct
	// locking every byte ends at its exact increment count.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				lo := int64((j * 13) % 900)
				hi := lo + 100
				unlock := lt.Lock(lo, hi)
				buf := make([]byte, hi-lo)
				ReadFull(m, buf, lo)
				for k := range buf {
					buf[k]++
				}
				m.WriteAt(buf, lo)
				unlock()
			}
		}()
	}
	wg.Wait()
	var want [1000]int
	for j := 0; j < 50; j++ {
		lo := (j * 13) % 900
		for k := lo; k < lo+100; k++ {
			want[k] += 8
		}
	}
	data := memBytes(m)
	for i, w := range want {
		if int(data[i]) != w {
			t.Fatalf("byte %d = %d, want %d (lost update)", i, data[i], w)
		}
	}
}
