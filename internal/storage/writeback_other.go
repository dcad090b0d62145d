//go:build !linux || arm

package storage

// StartWriteback implements Writeback as a no-op where the standard
// library offers no sync_file_range(2) (linux/arm has none): the bytes
// reach the device at the next Sync, as they always did.
func (fb *File) StartWriteback(off, n int64) {}
