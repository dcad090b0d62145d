//go:build linux

package storage

import (
	"io"
	"syscall"
)

// File's send path: sendfile(2) from the file, at an explicit offset, to
// the socket under w, through the socket's syscall.RawConn.  The explicit
// offset is what keeps the file's shared offset where it is (io.Copy from
// the *os.File would move it, under every other caller).  A writer that
// is no socket — a frame being buffered for a wrapped connection — is
// copied to through a section reader instead, which reads at explicit
// offsets too.

// sendfileMax bounds one sendfile call (the kernel moves at most
// 0x7ffff000 bytes per call).
const sendfileMax = 1 << 30

// SupportsSend implements Sender.
func (fb *File) SupportsSend() bool { return true }

// SendTo implements Sender.
func (fb *File) SendTo(w io.Writer, exts []Extent) (int64, error) {
	if err := fb.takeSizeErr(); err != nil {
		return 0, err
	}
	var sf *fileSend
	if sc, ok := w.(syscall.Conn); ok {
		if rc, err := sc.SyscallConn(); err == nil { // none: w buffers, and is copied to
			sf = &fileSend{rc: rc, src: int(fb.f.Fd())}
			sf.fn = sf.write
		}
	}
	var sent int64
	for i := 0; i < len(exts); {
		// Extents adjacent in the file are one sendfile, as adjacent
		// segments are one preadv.
		e := exts[i]
		for i++; i < len(exts) && exts[i].Off == e.Off+e.N; i++ {
			e.N += exts[i].N
		}
		if e.N == 0 {
			continue // no sendfile: it would leave w's held-back bytes waiting for more
		}
		m, err := fb.sendExtent(w, sf, e)
		sent += m
		if err == nil && m < e.N {
			m, err = sendZeros(w, e.N-m)
			sent += m
		}
		if err != nil {
			return sent, err
		}
	}
	return sent, nil
}

// sendExtent writes e to w, short only at the end of the file: by
// sendfile when sf is w's socket, by a copy otherwise, or when the kernel
// cannot sendfile from this file.
func (fb *File) sendExtent(w io.Writer, sf *fileSend, e Extent) (int64, error) {
	if sf != nil {
		m, err := sf.send(e)
		if m > 0 || (err != syscall.EINVAL && err != syscall.ENOSYS) {
			if err != nil {
				return m, &fileOpError{op: "sendfile", err: err}
			}
			return m, nil
		}
	}
	return io.Copy(w, io.NewSectionReader(fb.f, e.Off, e.N))
}

// fileSend is one SendTo's sendfile(2) state, made once per call so that
// an extent costs no allocation: fn, its write method bound once, is what
// the socket's RawConn runs for each extent.
type fileSend struct {
	rc   syscall.RawConn
	src  int // the file's descriptor
	fn   func(fd uintptr) bool
	e    Extent // the extent being sent
	done int64  // bytes of e sent
	err  error
}

// send moves e from the file to the socket, waiting for room in the
// socket as a Write would, and stops early only at the end of the file.
func (sf *fileSend) send(e Extent) (int64, error) {
	sf.e, sf.done, sf.err = e, 0, nil
	err := sf.rc.Write(sf.fn)
	if sf.err != nil {
		err = sf.err
	}
	return sf.done, err
}

func (sf *fileSend) write(fd uintptr) bool {
	for sf.done < sf.e.N {
		pos := sf.e.Off + sf.done
		k, err := syscall.Sendfile(int(fd), sf.src, &pos, int(min(sf.e.N-sf.done, sendfileMax)))
		if k > 0 {
			sf.done += int64(k)
		}
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			return false // wait until the socket has room
		case err != nil:
			sf.err = err
			return true
		case k == 0:
			return true // the end of the file
		}
	}
	return true
}

// zeros is what sendZeros writes from.
var zeros [4096]byte

// sendZeros writes n zero bytes to w: the part of an extent past the end
// of the store.
func sendZeros(w io.Writer, n int64) (int64, error) {
	var done int64
	for done < n {
		k, err := w.Write(zeros[:min(n-done, int64(len(zeros)))])
		done += int64(k)
		if err != nil {
			return done, err
		}
	}
	return done, nil
}
