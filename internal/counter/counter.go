// Package counter is the one model of every layer's Stats struct: a
// struct of int64 counters, and nothing else, that is its layer's only
// live store.  Counts are written into it with sync/atomic (or plainly,
// by a single owner); this package snapshots, sums, differences and lays
// out such a struct, each a loop over its fields in declaration order.
//
// A struct written atomically must be the first field of its owner: on
// 386 and arm, sync/atomic needs 64-bit words 64-bit aligned, and only
// the first word of an allocation is guaranteed to be.
package counter

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
)

// accepted holds the struct types Fields has checked, so that the check
// runs once per type and a snapshot allocates nothing.
var accepted sync.Map // reflect.Type → struct{}

// Fields returns the counters of *p in declaration order, which is the
// order of a wire record of T, as a slice aliasing *p.  It panics unless
// T is a struct whose every field is an int64: such a struct is laid out
// as an [n]int64 array.
func Fields[T any](p *T) []int64 {
	t := reflect.TypeFor[T]()
	if _, ok := accepted.Load(t); !ok {
		check(t)
		accepted.Store(t, struct{}{})
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(p)), t.NumField())
}

func check(t reflect.Type) {
	if t.Kind() != reflect.Struct {
		panic(fmt.Sprintf("counter: %s is not a struct", t))
	}
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.Type != reflect.TypeFor[int64]() {
			panic(fmt.Sprintf("counter: %s.%s is %s, not int64", t, f.Name, f.Type))
		}
	}
}

// Load returns a snapshot of *p, each counter read atomically.
func Load[T any](p *T) (s T) {
	src, dst := Fields(p), Fields(&s)
	for i := range src {
		dst[i] = atomic.LoadInt64(&src[i])
	}
	return s
}

// Add adds o to *s, counter by counter.
func Add[T any](s *T, o T) {
	dst, src := Fields(s), Fields(&o)
	for i := range dst {
		dst[i] += src[i]
	}
}

// Sub returns the counter deltas s − prev.
func Sub[T any](s, prev T) T {
	dst, src := Fields(&s), Fields(&prev)
	for i := range dst {
		dst[i] -= src[i]
	}
	return s
}
