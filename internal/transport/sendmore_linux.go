//go:build linux

package transport

import (
	"net"
	"syscall"
)

// sendMore writes b to the socket under rc with MSG_MORE: the kernel holds
// it for the bytes the next send brings, so that a frame's header and the
// start of a payload sent by sendfile leave together.
func sendMore(rc syscall.RawConn, _ *net.TCPConn, b []byte) error {
	var serr error
	err := rc.Write(func(fd uintptr) bool {
		for len(b) > 0 {
			n, err := syscall.SendmsgN(int(fd), b, nil, nil, syscall.MSG_MORE)
			switch err {
			case nil:
				b = b[n:]
			case syscall.EINTR:
			case syscall.EAGAIN:
				return false // wait until the socket has room
			default:
				serr = err
				return true
			}
		}
		return true
	})
	if serr != nil {
		return serr
	}
	return err
}
