//go:build !linux

package transport

import (
	"net"
	"sync/atomic"
)

// Without readv(2) a posted payload is read through the link's buffered
// reader, segment by segment (readPosted).
type sockReader struct{}

func newSockReader(net.Conn, *atomic.Int64) *sockReader { return nil }

func (*sockReader) readFull(*segCursor) error { panic("transport: no socket reader on this platform") }
