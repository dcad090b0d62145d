//go:build linux

package transport

import (
	"io"
	"net"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// The posted receive's socket read: readv(2) through the connection's
// syscall.RawConn, so that a frame's payload goes from the socket
// straight into the posted segments — the receive mirror of the writer's
// writev.  The raw syscall is used directly, as storage's preadv is, so no
// dependency outside the standard library is needed.

// iovMax bounds iovecs per readv (IOV_MAX is 1024 on Linux).
const iovMax = 1024

// sockReader reads posted payloads from one link's socket.  It belongs to
// the link's reader goroutine; the iovec scratch and the callback are
// made once, so that a frame allocates nothing.
type sockReader struct {
	rc    syscall.RawConn
	recv  *atomic.Int64 // the endpoint's BytesRecv
	iov   []syscall.Iovec
	n     int
	errno syscall.Errno
	call  func(fd uintptr) bool
}

// newSockReader returns the socket reader of conn, or nil when conn is
// not a syscall.Conn (a ChaosConn): the caller then reads through its
// buffered reader.
func newSockReader(conn net.Conn, recv *atomic.Int64) *sockReader {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	s := &sockReader{rc: rc, recv: recv}
	s.call = func(fd uintptr) bool {
		for {
			n, _, errno := syscall.Syscall(syscall.SYS_READV, fd, uintptr(unsafe.Pointer(&s.iov[0])), uintptr(len(s.iov)))
			switch errno {
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false // wait until the socket is readable
			}
			s.n, s.errno = int(n), errno
			return true
		}
	}
	return s
}

// readFull fills the rest of c's segments from the socket, at most iovMax
// of them per readv, counting the bytes as they cross it.
func (s *sockReader) readFull(c *segCursor) error {
	defer func() { clear(s.iov) }() // keep no pointer into a posting
	for {
		s.iov = s.iov[:0]
		for i, k := c.i, c.k; i < len(c.segs) && len(s.iov) < iovMax; i, k = i+1, 0 {
			if b := c.segs[i][k:]; len(b) > 0 {
				iv := syscall.Iovec{Base: &b[0]}
				iv.SetLen(len(b))
				s.iov = append(s.iov, iv)
			}
		}
		if len(s.iov) == 0 {
			return nil
		}
		if err := s.rc.Read(s.call); err != nil {
			return truncated(err)
		}
		if s.errno != 0 {
			return truncated(s.errno)
		}
		if s.n == 0 {
			return truncated(io.ErrUnexpectedEOF)
		}
		s.recv.Add(int64(s.n))
		left := s.n
		for _, iv := range s.iov {
			k := min(int(iv.Len), left)
			raceWrite(unsafe.Slice(iv.Base, k))
			if left -= k; left == 0 {
				break
			}
		}
		c.advance(s.n)
	}
}
