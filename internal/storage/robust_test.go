package storage

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestMemTruncateShrinkRegrowZeroes is the regression test for the
// stale-data bug: shrinking kept the old bytes in the backing array's
// spare capacity, and a later WriteAt regrow within that capacity
// resurfaced them instead of zeros.
func TestMemTruncateShrinkRegrowZeroes(t *testing.T) {
	m := NewMem()
	if _, err := m.WriteAt(bytes.Repeat([]byte{0xFF}, 64), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Truncate(16); err != nil {
		t.Fatal(err)
	}
	// Regrow within the retained capacity without touching [16, 63).
	if _, err := m.WriteAt([]byte{0xAA}, 63); err != nil {
		t.Fatal(err)
	}
	got := memBytes(m)
	if len(got) != 64 {
		t.Fatalf("size %d after regrow, want 64", len(got))
	}
	for i := 16; i < 63; i++ {
		if got[i] != 0 {
			t.Fatalf("byte %d = %#x after truncate+regrow, want 0 (stale pre-truncate data)", i, got[i])
		}
	}
	if got[63] != 0xAA {
		t.Errorf("written byte lost: %#x", got[63])
	}
}

// TestMemTruncateGrowZeroes: growing within capacity must also expose
// zeros (the in-capacity grow path shares the invariant).
func TestMemTruncateGrowZeroes(t *testing.T) {
	m := NewMem()
	if _, err := m.WriteAt(bytes.Repeat([]byte{0xFF}, 64), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Truncate(8); err != nil {
		t.Fatal(err)
	}
	if err := m.Truncate(32); err != nil {
		t.Fatal(err)
	}
	got := memBytes(m)
	for i := 8; i < 32; i++ {
		if got[i] != 0 {
			t.Fatalf("byte %d = %#x after shrink+grow truncates, want 0", i, got[i])
		}
	}
}

// TestFileSizeDeferredError: Size cannot return an error, so a Stat
// failure must not masquerade as an empty file — it is cached and
// surfaced by the next ReadAt or Sync, once.
func TestFileSizeDeferredError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	fb, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fb.WriteAt([]byte("data"), 0); err != nil {
		t.Fatal(err)
	}
	if got := fb.Size(); got != 4 {
		t.Fatalf("Size = %d, want 4", got)
	}
	// Close the descriptor out from under it: Stat now fails.
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fb.Size(); got != 0 {
		t.Fatalf("failed Size = %d, want 0", got)
	}
	_, rerr := fb.ReadAt(make([]byte, 4), 0)
	if rerr == nil || !errors.Is(rerr, os.ErrClosed) {
		t.Fatalf("ReadAt after failed Size = %v, want the deferred Stat error", rerr)
	}
	if want := "deferred Size failure"; !bytes.Contains([]byte(rerr.Error()), []byte(want)) {
		t.Errorf("error %q does not mention %q", rerr, want)
	}
	// The deferred error is surfaced once; the next call reports its
	// own (here: closed-file) failure rather than replaying the old one.
	_, rerr2 := fb.ReadAt(make([]byte, 4), 0)
	if rerr2 == nil {
		t.Fatal("second ReadAt on closed file succeeded")
	}
	if bytes.Contains([]byte(rerr2.Error()), []byte("deferred")) {
		t.Errorf("deferred error replayed twice: %v", rerr2)
	}

	// Sync also surfaces it.
	fb2, err := OpenFile(filepath.Join(t.TempDir(), "g"))
	if err != nil {
		t.Fatal(err)
	}
	if err := fb2.Close(); err != nil {
		t.Fatal(err)
	}
	fb2.Size()
	if err := fb2.Sync(); err == nil || !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Sync after failed Size = %v, want the deferred Stat error", err)
	}
}

// TestFaultyRangeTargeting: range-armed faults hit exactly the
// overlapping operations.
func TestFaultyRangeTargeting(t *testing.T) {
	fb := NewFaulty(NewMem())
	if _, err := fb.WriteAt(make([]byte, 256), 0); err != nil {
		t.Fatal(err)
	}
	fb.FailReadRange(64, 128)
	if _, err := fb.ReadAt(make([]byte, 32), 0); err != nil {
		t.Errorf("read outside the armed range failed: %v", err)
	}
	if _, err := fb.ReadAt(make([]byte, 32), 128); err != nil {
		t.Errorf("read at the exclusive end failed: %v", err)
	}
	if _, err := fb.ReadAt(make([]byte, 32), 48); !errors.Is(err, ErrInjected) {
		t.Errorf("overlapping read err = %v, want injected", err)
	}
	if _, err := fb.ReadAt(make([]byte, 1), 127); !errors.Is(err, ErrInjected) {
		t.Errorf("last-byte read err = %v, want injected", err)
	}
	if _, err := fb.WriteAt(make([]byte, 32), 64); err != nil {
		t.Errorf("write hit a read-armed fault: %v", err)
	}
	fb.Heal()
	if _, err := fb.ReadAt(make([]byte, 32), 64); err != nil {
		t.Errorf("read after Heal failed: %v", err)
	}
}

// TestFaultyArmRace is the regression test for the arm/reset race: the
// count threshold and counter were two unsynchronized atomics, so
// re-arming concurrently with in-flight operations could observe a new
// threshold against a stale count.  Under -race this test also proves
// the data paths are clean.
func TestFaultyArmRace(t *testing.T) {
	fb := NewFaulty(NewMem())
	if _, err := fb.WriteAt(make([]byte, 64), 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 8)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := fb.ReadAt(buf, 0); err != nil && !errors.Is(err, ErrInjected) && err != io.EOF {
					t.Errorf("unexpected read error: %v", err)
					return
				}
				if _, err := fb.WriteAt(buf, 0); err != nil && !errors.Is(err, ErrInjected) {
					t.Errorf("unexpected write error: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		fb.FailReads(int64(i%7 + 1))
		fb.FailWrites(int64(i%5 + 1))
		fb.FailReadRange(int64(i%32), int64(i%32+16))
		fb.Heal()
	}
	close(stop)
	wg.Wait()

	fb.Heal()
	if _, err := fb.ReadAt(make([]byte, 8), 0); err != nil {
		t.Errorf("read after the storm failed: %v", err)
	}
}
