package datatypetest

import "repro/internal/datatype"

// LB reports t's lower bound, which datatype has no accessor for (its
// product callers need only the extent).  A struct of t and a UB marker
// far above t takes t's lower bound, explicit or not, and the marker's
// upper bound, so its extent is the marker's displacement less t's lower
// bound.
func LB(t *datatype.Type) int64 {
	const far = 1 << 50
	s, err := datatype.Struct([]int64{1, 1}, []int64{0, far}, []*datatype.Type{t, datatype.UBMarker})
	if err != nil {
		panic(err)
	}
	return far - s.Extent()
}
