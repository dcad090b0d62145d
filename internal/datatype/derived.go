package datatype

import "sync/atomic"

// Derived is the one place data computed from a Type's tree is kept.  A
// Type is immutable, so whatever is derived from it — its canonical
// encoding, the navigation index internal/fotf builds per node, the
// compiled copy program internal/core looks up for it — is computed at
// most once and lives exactly as long as the Type: nothing outside the
// Type refers to it, so dropping the last reference to a type (a decoded
// remote fileview after the next SetView, say) frees all of it.  Every
// cell starts empty, fills on first use, and is safe for concurrent use.
type Derived struct {
	enc atomic.Pointer[[]byte]

	// Nav is the per-node navigation index of internal/fotf.
	Nav Memo
	// Prog is internal/core's handle on the type's compiled copy program.
	Prog Memo
}

// Derived returns t's slot for derived data.
func (t *Type) Derived() *Derived { return &t.derived }

// Memo is a write-once cell.  The packages that own a cell of Derived
// store their own types in it, which this package cannot name.
type Memo struct{ v atomic.Value }

// Load returns the stored value, or nil while the cell is empty.
func (m *Memo) Load() any { return m.v.Load() }

// Store fills an empty cell with v and returns the cell's value: v, or
// what a concurrent Store put there first.  Every Store to one cell must
// pass the same concrete type.
func (m *Memo) Store(v any) any {
	if m.v.CompareAndSwap(nil, v) {
		return v
	}
	return m.v.Load()
}

// encoding returns t's canonical encoding, computing it on first use.
// The slice is shared: its capacity is clipped so that an append by a
// caller copies instead of writing behind it.
func (t *Type) encoding() []byte {
	if p := t.derived.enc.Load(); p != nil {
		return *p
	}
	enc := appendType(nil, t)
	enc = enc[:len(enc):len(enc)]
	if !t.derived.enc.CompareAndSwap(nil, &enc) {
		return *t.derived.enc.Load()
	}
	return enc
}
