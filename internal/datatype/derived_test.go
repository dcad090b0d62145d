package datatype

import (
	"bytes"
	"sync"
	"testing"
)

// TestDerivedSlotConcurrent: first use of a type's derived data from
// many goroutines at once yields one encoding and one memo value, and
// appending to the shared encoding cannot write behind it.
func TestDerivedSlotConcurrent(t *testing.T) {
	dt, err := Hindexed([]int64{3, 0, 5, 1}, []int64{0, 7, 40, 96}, Int32)
	if err != nil {
		t.Fatal(err)
	}
	want := appendType(nil, dt)
	const G = 16
	encs := make([][]byte, G)
	memos := make([]any, G)
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			encs[g] = Encode(dt)
			_ = append(encs[g], 0xff)
			if len(encs[g]) != len(want) {
				t.Errorf("encoded size = %d, want %d", len(encs[g]), len(want))
			}
			v := g
			memos[g] = dt.Derived().Nav.Store(&v)
		}(g)
	}
	wg.Wait()
	for g := 0; g < G; g++ {
		if !bytes.Equal(encs[g], want) {
			t.Fatalf("goroutine %d: encoding %x, want %x", g, encs[g], want)
		}
		if &encs[g][0] != &encs[0][0] {
			t.Errorf("goroutine %d got its own copy of the encoding", g)
		}
		if memos[g] != memos[0] || memos[g] != dt.Derived().Nav.Load() {
			t.Errorf("goroutine %d: memo %p, others %p", g, memos[g], memos[0])
		}
	}
	if dt.Derived().Prog.Load() != nil {
		t.Error("the cells of one slot are not independent")
	}
	if allocs := testing.AllocsPerRun(100, func() { Encode(dt) }); allocs != 0 {
		t.Errorf("Encode of a type already encoded allocates %v times", allocs)
	}
}
