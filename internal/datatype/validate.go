package datatype

import (
	"errors"
	"fmt"
)

// Filetype/etype legality, following MPI-IO (MPI-2 §9 / the paper §3.2.3):
// an etype and a filetype must have non-negative, monotonically
// non-decreasing displacements in their type maps, and the filetype must
// be built from whole etypes.  These restrictions are what make the
// listless engine's coverage check sound: each byte of the file can be
// written at most once through each fileview.  Monotonicity is read from
// Type.Monotone, decided when the type was built: validation walks no run.

// ErrNotEtypeMultiple reports a filetype whose data is not a whole number
// of etypes.
var ErrNotEtypeMultiple = errors.New("datatype: filetype size is not a multiple of etype size")

// ValidateEtype checks that t is usable as an elementary type.
func ValidateEtype(t *Type) error {
	if t == nil {
		return errNilChild
	}
	if t.size <= 0 {
		return fmt.Errorf("datatype: etype %s has size %d; must be positive", t, t.size)
	}
	return validateMonotonic(t, "etype")
}

// ValidateFiletype checks that ftype is usable as a filetype over etype:
// monotone non-decreasing non-negative displacements, and a data size
// that is a whole multiple of the etype size.
func ValidateFiletype(etype, ftype *Type) error {
	if err := ValidateEtype(etype); err != nil {
		return err
	}
	if ftype == nil {
		return errNilChild
	}
	if ftype.size%etype.size != 0 {
		return fmt.Errorf("%w: filetype size %d, etype size %d", ErrNotEtypeMultiple, ftype.size, etype.size)
	}
	if ftype.Extent() < ftype.trueUB {
		return fmt.Errorf("datatype: filetype extent %d smaller than data span end %d: instances would overlap",
			ftype.Extent(), ftype.trueUB)
	}
	return validateMonotonic(ftype, "filetype")
}

// validateMonotonic reads the structural flag: no run is walked.
func validateMonotonic(t *Type, what string) error {
	switch {
	case t.size > 0 && t.trueLB < 0:
		return fmt.Errorf("datatype: %s has negative displacement %d", what, t.trueLB)
	case !t.mono:
		return fmt.Errorf("datatype: %s type map not monotonically non-decreasing", what)
	}
	return nil
}
