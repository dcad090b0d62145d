package datatype

// ValidateMonotonic exposes validateMonotonic to the external tests, which
// draw their types from datatypetest.
var ValidateMonotonic = validateMonotonic

// LowerBound reads t's lower bound, which datatypetest.LB works out from
// t's exported surface.
func LowerBound(t *Type) int64 { return t.lb }
