package storage

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/datatype"
)

// memView is a minimal ViewBackend for exercising the fault wrappers:
// data offsets map straight to file offsets (a contiguous "view").
type memView struct {
	*Mem
	regs int
}

func (m *memView) SupportsViews() bool { return true }

func (m *memView) RegisterView(disp int64, ftype *datatype.Type) (ViewHandle, error) {
	m.regs++
	return ViewHandle(m.regs), nil
}

func (m *memView) ViewRead(h ViewHandle, p []byte, d0 int64) error {
	return ReadFull(m.Mem, p, d0)
}

func (m *memView) ViewWrite(h ViewHandle, p []byte, d0 int64) error {
	_, err := m.Mem.WriteAt(p, d0)
	return err
}

func TestChaosViewOpInjection(t *testing.T) {
	inner := &memView{Mem: NewMem()}
	seed := []byte("0123456789abcdef")
	if _, err := inner.WriteAt(seed, 0); err != nil {
		t.Fatal(err)
	}

	// Certain injection: every view op fails with the configured class.
	c := NewChaos(1, inner, ChaosConfig{TransientRead: 1, PermanentWrite: 1})
	vb, ok := AsViewBackend(c)
	if !ok {
		t.Fatal("Chaos over a view backend must expose views")
	}
	h, err := vb.RegisterView(0, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if err := vb.ViewRead(h, buf, 0); !IsTransient(err) {
		t.Fatalf("ViewRead under TransientRead=1: got %v, want transient", err)
	}
	if err := vb.ViewWrite(h, buf, 0); err == nil || IsTransient(err) {
		t.Fatalf("ViewWrite under PermanentWrite=1: got %v, want permanent", err)
	}
	if st := c.Stats(); st.Transients != 1 || st.Permanents != 1 {
		t.Fatalf("stats = %+v, want 1 transient + 1 permanent", st)
	}

	// No injection: ops pass through byte-exact.
	quiet := NewChaos(1, inner, ChaosConfig{})
	qb, _ := AsViewBackend(quiet)
	if err := qb.ViewRead(h, buf, 4); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, seed[4:12]) {
		t.Fatalf("passthrough ViewRead got %q, want %q", buf, seed[4:12])
	}

	// A Resilient wrapper rides out probabilistic transient view faults.
	flaky := NewChaos(7, inner, ChaosConfig{TransientRead: 0.5, TransientWrite: 0.5})
	res := NewResilient(flaky, ResilientConfig{MaxRetries: 64})
	rb, ok := AsViewBackend(res)
	if !ok {
		t.Fatal("Resilient over Chaos over views must expose views")
	}
	for i := 0; i < 10; i++ {
		if err := rb.ViewWrite(h, []byte{byte(i)}, int64(i)); err != nil {
			t.Fatalf("resilient ViewWrite %d: %v", i, err)
		}
		got := make([]byte, 1)
		if err := rb.ViewRead(h, got, int64(i)); err != nil {
			t.Fatalf("resilient ViewRead %d: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("resilient view round-trip %d: got %d", i, got[0])
		}
	}
}

func TestFaultyViewOpInjection(t *testing.T) {
	inner := &memView{Mem: NewMem()}
	f := NewFaulty(inner)
	vb, ok := AsViewBackend(f)
	if !ok {
		t.Fatal("Faulty over a view backend must expose views")
	}
	h, err := vb.RegisterView(0, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("abcd")
	if err := vb.ViewWrite(h, buf, 0); err != nil {
		t.Fatal(err)
	}

	// Range arms fire on view-data offsets.
	f.FailWriteRange(8, 16)
	if err := vb.ViewWrite(h, buf, 8); !errors.Is(err, ErrInjected) {
		t.Fatalf("ViewWrite in failed range: got %v, want ErrInjected", err)
	}
	if err := vb.ViewWrite(h, buf, 16); err != nil {
		t.Fatalf("ViewWrite outside failed range: %v", err)
	}
	f.FailReads(1)
	if err := vb.ViewRead(h, buf, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("ViewRead with read arm: got %v, want ErrInjected", err)
	}
	f.Heal()
	if err := vb.ViewRead(h, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte("abcd")) {
		t.Fatalf("healed ViewRead got %q", buf)
	}

	// A Faulty over a view-less backend must not claim views.
	if _, ok := AsViewBackend(NewFaulty(NewMem())); ok {
		t.Fatal("Faulty over plain Mem must not expose views")
	}
	if _, ok := AsViewBackend(NewChaos(1, NewMem(), ChaosConfig{})); ok {
		t.Fatal("Chaos over plain Mem must not expose views")
	}
}
