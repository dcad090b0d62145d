//go:build !linux

package transport

import (
	"net"
	"syscall"
)

// sendMore writes b to the connection: without MSG_MORE, on its own.
func sendMore(_ syscall.RawConn, tcp *net.TCPConn, b []byte) error {
	_, err := tcp.Write(b)
	return err
}
