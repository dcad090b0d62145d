package storage

import (
	"errors"

	"repro/internal/datatype"
)

// Registered fileviews.  A backend that understands datatypes — the
// networked I/O-server tier — can accept a fileview (a tiled filetype at
// a displacement) once and then serve accesses addressed in *data*
// bytes of that pattern, evaluating the noncontiguous layout on its own
// side of the wire.  That turns an access touching n scattered blocks
// from an n-entry offset list into a constant-size (handle, offset,
// count) request — the wire-level analogue of the paper's listless
// engine replacing ol-lists with the compact datatype representation.

// ViewHandle names one registered fileview on a ViewBackend.
type ViewHandle uint64

// ErrNoViews is returned by wrapper backends whose inner backend does
// not implement ViewBackend when a view method is called anyway.
var ErrNoViews = errors.New("storage: backend does not support registered views")

// ViewBackend is the optional registered-view extension of Backend.
//
// Data byte x of a view (disp, ftype) lives at absolute file offset
// disp + b, where b is the buffer offset of data byte x in the
// indefinite tiling of ftype.  ViewRead and ViewWrite follow the
// contract of Backend.ReadAtv and WriteAtv: ViewRead zero-fills data
// bytes past the stored size, ViewWrite extends the store as needed.
type ViewBackend interface {
	// SupportsViews reports whether view calls can succeed.  Wrapper
	// backends satisfy ViewBackend statically whenever their inner
	// backend might; this probe resolves the capability dynamically.
	SupportsViews() bool
	// RegisterView registers the tiled filetype at displacement disp
	// and returns a handle for view-addressed access.  Handles are
	// valid until the backend is closed.
	RegisterView(disp int64, ftype *datatype.Type) (ViewHandle, error)
	// ViewRead reads data bytes [d0, d0+len(p)) of the view into p.
	ViewRead(h ViewHandle, p []byte, d0 int64) error
	// ViewWrite writes p as data bytes [d0, d0+len(p)) of the view.
	ViewWrite(h ViewHandle, p []byte, d0 int64) error
}

// AsViewBackend reports b's usable view extension, if any.
func AsViewBackend(b Backend) (ViewBackend, bool) {
	vb, ok := b.(ViewBackend)
	if !ok || !vb.SupportsViews() {
		return nil, false
	}
	return vb, true
}
