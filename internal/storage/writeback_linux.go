//go:build linux && !arm

package storage

import "syscall"

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE: start writeback of the
// range's dirty pages that are not already under writeback, and wait for
// none of it.
const syncFileRangeWrite = 2

// StartWriteback implements Writeback with sync_file_range(2).  An empty
// range is skipped (n == 0 would mean "to the end of the file"), and the
// error is dropped: the next Sync reports a failed writeback.
func (fb *File) StartWriteback(off, n int64) {
	if n <= 0 {
		return
	}
	syscall.SyncFileRange(int(fb.f.Fd()), off, n, syncFileRangeWrite)
}
