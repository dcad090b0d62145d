//go:build linux && !arm

package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestFileStartWriteback: the hint over a file's written range, over an
// empty one and past its end leaves every byte as written, a Sync after
// it succeeds, and a hint on a closed file is a no-op, not a panic.
func TestFileStartWriteback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	fb, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("writeback"), 1<<12)
	if _, err := fb.WriteAt(want, 100); err != nil {
		t.Fatal(err)
	}
	fb.StartWriteback(100, int64(len(want)))
	fb.StartWriteback(0, 0)
	fb.StartWriteback(1<<30, 4096)
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := fb.ReadAt(got, 100); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("after the hint the file reads back changed (%v)", err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	fb.StartWriteback(100, int64(len(want)))
	if disk, err := os.ReadFile(path); err != nil || !bytes.Equal(disk[100:], want) {
		t.Fatalf("the file on disk differs from what was written (%v)", err)
	}
}
