//go:build linux

package storage

import (
	"syscall"
	"unsafe"
)

// File's native vectored path: preadv(2)/pwritev(2).  Segments that are
// adjacent in the file (next.Off == prev end) share one syscall — the
// kernel walks the iovec array at a single file position — and each
// discontiguity starts a new batch.  The raw syscalls are used directly
// (offset split into the lo/hi registers the kernel expects) so no
// dependency outside the standard library is needed.

// iovMax bounds iovecs per syscall (IOV_MAX is 1024 on Linux).
const iovMax = 1024

// ReadAtv implements Backend for File with ReadFull semantics:
// segments (or suffixes of them) past EOF read as zeros.
func (fb *File) ReadAtv(segs []Segment) error {
	if err := fb.takeSizeErr(); err != nil {
		return err
	}
	return fb.eachContigBatch(segs, func(off int64, iovs []syscall.Iovec, bufs []Segment) error {
		want := iovsLen(iovs)
		var got int64
		for got < want {
			n, err := preadv(fb.f.Fd(), advanceIovs(iovs, got), off+got)
			if err != nil {
				return &fileOpError{op: "preadv", err: err}
			}
			if n == 0 {
				break // EOF: zero-fill the rest
			}
			got += n
		}
		zeroTail(bufs, got)
		return nil
	})
}

// WriteAtv implements Backend for File.
func (fb *File) WriteAtv(segs []Segment) error {
	return fb.eachContigBatch(segs, func(off int64, iovs []syscall.Iovec, _ []Segment) error {
		want := iovsLen(iovs)
		var done int64
		for done < want {
			n, err := pwritev(fb.f.Fd(), advanceIovs(iovs, done), off+done)
			if err != nil {
				return &fileOpError{op: "pwritev", err: err}
			}
			if n == 0 {
				return &fileOpError{op: "pwritev", err: syscall.EIO}
			}
			done += n
		}
		return nil
	})
}

// eachContigBatch groups file-contiguous runs of segments (capped at
// iovMax iovecs) and invokes op once per run with the run's start
// offset, its iovec array, and the segments it covers.  Zero-length
// segments are skipped.  The iovec scratch is allocated once, for the
// longest batch the segments can make.
func (fb *File) eachContigBatch(segs []Segment, op func(off int64, iovs []syscall.Iovec, bufs []Segment) error) error {
	iovs := make([]syscall.Iovec, 0, min(len(segs), iovMax))
	i := 0
	for i < len(segs) {
		if len(segs[i].Buf) == 0 {
			i++
			continue
		}
		start := i
		off := segs[i].Off
		end := off + int64(len(segs[i].Buf))
		iovs = append(iovs[:0], iovecOf(segs[i].Buf))
		i++
		for i < len(segs) && len(iovs) < iovMax && segs[i].Off == end && len(segs[i].Buf) > 0 {
			iovs = append(iovs, iovecOf(segs[i].Buf))
			end += int64(len(segs[i].Buf))
			i++
		}
		if err := op(off, iovs, segs[start:i]); err != nil {
			return err
		}
	}
	return nil
}

func iovecOf(b []byte) syscall.Iovec {
	iv := syscall.Iovec{Base: &b[0]}
	iv.SetLen(len(b))
	return iv
}

func iovsLen(iovs []syscall.Iovec) int64 {
	var n int64
	for _, iv := range iovs {
		n += int64(iv.Len)
	}
	return n
}

// advanceIovs returns the iovec suffix starting skip bytes in,
// rebasing a partially consumed first entry.  The returned slice may
// alias a modified copy of the boundary entry, so it is rebuilt per
// call into a fresh backing only when a partial entry exists.
func advanceIovs(iovs []syscall.Iovec, skip int64) []syscall.Iovec {
	if skip == 0 {
		return iovs
	}
	for i := range iovs {
		l := int64(iovs[i].Len)
		if skip < l {
			out := make([]syscall.Iovec, len(iovs)-i)
			copy(out, iovs[i:])
			out[0].Base = (*byte)(unsafe.Add(unsafe.Pointer(out[0].Base), skip))
			out[0].SetLen(int(l - skip))
			return out
		}
		skip -= l
	}
	return nil
}

// zeroTail zeroes everything past the first got bytes of the batch —
// the ReadFull past-EOF contract, applied across segment boundaries.
func zeroTail(bufs []Segment, got int64) {
	for _, s := range bufs {
		b := s.Buf
		if got >= int64(len(b)) {
			got -= int64(len(b))
			continue
		}
		tail := b[got:]
		for i := range tail {
			tail[i] = 0
		}
		got = 0
	}
}

// fileOpError wraps a raw vectored-syscall failure.
type fileOpError struct {
	op  string
	err error
}

func (e *fileOpError) Error() string { return "storage: " + e.op + ": " + e.err.Error() }
func (e *fileOpError) Unwrap() error { return e.err }

func preadv(fd uintptr, iovs []syscall.Iovec, off int64) (int64, error) {
	if len(iovs) == 0 {
		return 0, nil
	}
	for {
		n, _, errno := syscall.Syscall6(syscall.SYS_PREADV, fd,
			uintptr(unsafe.Pointer(&iovs[0])), uintptr(len(iovs)),
			uintptr(off), uintptr(uint64(off)>>32), 0)
		if errno == syscall.EINTR {
			continue
		}
		if errno != 0 {
			return 0, errno
		}
		return int64(n), nil
	}
}

func pwritev(fd uintptr, iovs []syscall.Iovec, off int64) (int64, error) {
	if len(iovs) == 0 {
		return 0, nil
	}
	for {
		n, _, errno := syscall.Syscall6(syscall.SYS_PWRITEV, fd,
			uintptr(unsafe.Pointer(&iovs[0])), uintptr(len(iovs)),
			uintptr(off), uintptr(uint64(off)>>32), 0)
		if errno == syscall.EINTR {
			continue
		}
		if errno != 0 {
			return 0, errno
		}
		return int64(n), nil
	}
}
