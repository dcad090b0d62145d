package storage

// Early writeback.  A write to a file returns once its bytes are in the
// page cache; the device sees them when the kernel gets round to it, or
// when a Sync forces it and waits.  A caller that knows a Sync over
// bytes it has just written is coming can start their writeback at once,
// so that the Sync waits for what is left rather than for all of them.
// The hint changes when bytes reach the device, never whether a Sync
// makes them durable: without it the kernel may write them back at any
// moment too.

// Writeback is the optional early-writeback extension of Backend.
// StartWriteback asks the store to begin writing [off, off+n) back to
// its device and returns without waiting.  It is a hint and returns no
// error: a writeback that fails surfaces at the next Sync.
type Writeback interface {
	StartWriteback(off, n int64)
}
