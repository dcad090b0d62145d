//go:build !linux

package storage

// Portable vectored path for File: without preadv/pwritev, fall back to
// one backend call per segment, preserving the helpers' semantics
// (ReadFull zero-fill on reads).

// ReadAtv implements Backend for File.
func (fb *File) ReadAtv(segs []Segment) error {
	if err := fb.takeSizeErr(); err != nil {
		return err
	}
	for _, s := range segs {
		if err := ReadFull(fb, s.Buf, s.Off); err != nil {
			return err
		}
	}
	return nil
}

// WriteAtv implements Backend for File.
func (fb *File) WriteAtv(segs []Segment) error {
	for _, s := range segs {
		if _, err := fb.WriteAt(s.Buf, s.Off); err != nil {
			return err
		}
	}
	return nil
}
