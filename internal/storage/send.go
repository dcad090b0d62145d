package storage

import (
	"errors"
	"io"
)

// Sending.  A read whose bytes go straight out to a connection need not
// pass through the caller's memory: on Linux a File hands them to a socket
// with sendfile(2), so the page cache feeds the socket without a copy into
// a response buffer and a second copy out of it.  The I/O servers answer
// their raw reads this way (DESIGN §10).

// Extent is N bytes of a store at offset Off.
type Extent struct{ Off, N int64 }

// Sender is the optional send extension of Backend.  SendTo writes the
// bytes of exts to w, in order, with ReadAtv's semantics: bytes past the
// end of the store go out as zeros.  It reports how many bytes it wrote —
// all of them, or, with an error, how many went out before it — so that a
// caller knows whether w has seen any.  SupportsSend is the probe, as
// SupportsViews is for views: a wrapper answers for the store under it.
type Sender interface {
	SupportsSend() bool
	SendTo(w io.Writer, exts []Extent) (int64, error)
}

// AsSender returns b's send extension when b has one and it is usable.
// A backend without one — Mem, and File off Linux — is read into the
// caller's buffer with ReadAtv and the buffer written, as before.
func AsSender(b Backend) (Sender, bool) {
	s, ok := b.(Sender)
	if !ok || !s.SupportsSend() {
		return nil, false
	}
	return s, true
}

// ErrNoSend is what a wrapper's SendTo answers over a backend without
// the extension.
var ErrNoSend = errors.New("storage: backend does not send")

// extsLen sums the byte count of an extent list.
func extsLen(exts []Extent) int64 {
	var n int64
	for _, e := range exts {
		n += e.N
	}
	return n
}

// extsSpan reports the store range [lo, hi) an extent list touches (0,0
// when empty).
func extsSpan(exts []Extent) (lo, hi int64) {
	for i, e := range exts {
		if i == 0 || e.Off < lo {
			lo = e.Off
		}
		hi = max(hi, e.Off+e.N)
	}
	return lo, hi
}

// clipExts returns an extent list covering exactly the first n bytes of
// exts (n < total), cutting the boundary extent.
func clipExts(exts []Extent, n int64) []Extent {
	out := make([]Extent, 0, len(exts))
	for _, e := range exts {
		if n <= 0 {
			break
		}
		e.N = min(e.N, n)
		out = append(out, e)
		n -= e.N
	}
	return out
}
