package counter

import (
	"strings"
	"testing"
)

type sample struct {
	A, B int64
	c    int64
	D    int64
}

// TestRoundTrip: Load copies every counter, Add and Sub are inverse
// counter by counter, and Fields aliases the struct in declaration order.
func TestRoundTrip(t *testing.T) {
	s := sample{A: 1, B: -2, c: 3, D: 1 << 40}
	if got := Load(&s); got != s {
		t.Fatalf("Load = %+v, want %+v", got, s)
	}
	o := sample{A: 10, B: 20, c: 30, D: 40}
	sum := s
	Add(&sum, o)
	if want := (sample{11, 18, 33, 1<<40 + 40}); sum != want {
		t.Fatalf("Add = %+v, want %+v", sum, want)
	}
	if got := Sub(sum, o); got != s {
		t.Fatalf("Sub(Add(s, o), o) = %+v, want %+v", got, s)
	}
	fs := Fields(&s)
	if want := []int64{1, -2, 3, 1 << 40}; len(fs) != len(want) {
		t.Fatalf("Fields = %v, want %v", fs, want)
	} else {
		for i := range want {
			if fs[i] != want[i] {
				t.Fatalf("Fields = %v, want %v", fs, want)
			}
		}
	}
	fs[2] = 7
	if s.c != 7 {
		t.Fatalf("a write through Fields left the struct at %+v", s)
	}
}

// TestRefusesOtherFields: a field that is not an int64, or a type that is
// not a struct, panics, naming what it found.
func TestRefusesOtherFields(t *testing.T) {
	type flagged struct {
		N  int64
		On bool
	}
	type alias int64
	type named struct{ N alias }
	for _, c := range []struct {
		name, want string
		f          func()
	}{
		{"bool field", "flagged.On is bool", func() { Load(&flagged{}) }},
		{"named int64 field", "named.N is counter.alias", func() { Add(&named{}, named{}) }},
		{"not a struct", "is not a struct", func() { Fields(new(int64)) }},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, c.want) {
					t.Errorf("%s: panic %q, want one naming %q", c.name, msg, c.want)
				}
			}()
			c.f()
		}()
	}
}

// TestLoadAllocatesNothing: a checked type's snapshot is a loop, with no
// allocation, as the zero-allocation paths that read one need.
func TestLoadAllocatesNothing(t *testing.T) {
	s := &sample{A: 1}
	Load(s)
	if n := testing.AllocsPerRun(100, func() {
		if Load(s).A != 1 {
			t.Fatal("lost a counter")
		}
	}); n != 0 {
		t.Fatalf("Load allocates %v times", n)
	}
}
