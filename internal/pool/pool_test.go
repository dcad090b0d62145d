package pool

import (
	"runtime/debug"
	"testing"

	"repro/internal/testutil"
)

func TestClassFor(t *testing.T) {
	cases := []struct {
		n, class int
	}{
		{1, 0}, {511, 0}, {512, 0}, {513, 1}, {1024, 1},
		{1 << 20, 11}, {1<<20 + 1, 12}, {MaxBuf, numClasses - 1}, {MaxBuf + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
	for c := 0; c < numClasses; c++ {
		if got := classFor(classSize(c)); got != c {
			t.Errorf("classFor(classSize(%d)=%d) = %d", c, classSize(c), got)
		}
	}
}

// needsEveryPut skips a test that must find one particular Put again:
// under the race detector sync.Pool drops a quarter of all Puts at
// random.
func needsEveryPut(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	needsEveryPut(t)
	p := New()
	b := p.Get(1000)
	if len(b) != 1000 || cap(b) != 1024 {
		t.Fatalf("Get(1000): len=%d cap=%d, want 1000/1024", len(b), cap(b))
	}
	b[0], b[999] = 1, 2
	p.Put(b)
	b2 := p.Get(600)
	if len(b2) != 600 || cap(b2) != 1024 {
		t.Fatalf("Get(600) after Put: len=%d cap=%d", len(b2), cap(b2))
	}
	st := p.Stats()
	if st.Gets != 2 || st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats after round trip: %+v", st)
	}
}

func TestNilPoolAndEdgeCases(t *testing.T) {
	q := New()
	if b := q.Get(0); b != nil {
		t.Fatalf("Get(0) = %v, want nil", b)
	}
	if b := q.Get(-3); b != nil {
		t.Fatalf("Get(-3) = %v, want nil", b)
	}
	q.Put(nil)
	q.Put(make([]byte, 16)) // below MinBuf: dropped
	if st := q.Stats(); st.Puts != 0 || st.PutDropped != 1 {
		t.Fatalf("small Put stats: %+v", st)
	}
	big := q.Get(MaxBuf + 1)
	if len(big) != MaxBuf+1 {
		t.Fatalf("oversize Get: len=%d", len(big))
	}
	if st := q.Stats(); st.Oversize != 1 {
		t.Fatalf("oversize stats: %+v", st)
	}
}

func TestPutFilesUnderFloorClass(t *testing.T) {
	p := New()
	// A 1536-cap buffer parks in the 1024 class: a Get(1024) may use it,
	// a Get(2048) must not.
	p.Put(make([]byte, 1536))
	b := p.Get(1024)
	if cap(b) < 1024 {
		t.Fatalf("Get(1024) got cap %d", cap(b))
	}
	p.Put(make([]byte, 1536))
	if b := p.Get(2048); cap(b) < 2048 {
		t.Fatalf("Get(2048) got cap %d", cap(b))
	}
}

// TestWarmGetPutAllocFree is the pool's own allocation contract: a warm
// Get/Put cycle performs zero allocations (the *[]byte header boxes are
// recycled along with the buffers).
func TestWarmGetPutAllocFree(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := New()
	for i := 0; i < 4; i++ {
		p.Put(p.Get(64 << 10))
	}
	allocs := testing.AllocsPerRun(100, func() {
		b := p.Get(64 << 10)
		p.Put(b)
	})
	if allocs != 0 {
		t.Fatalf("warm Get/Put allocated %.1f times per run, want 0", allocs)
	}
}

func TestCheckedDoublePut(t *testing.T) {
	p := NewChecked()
	b := p.Get(2048)
	p.Put(b)
	defer func() {
		if recover() == nil {
			t.Fatal("second Put did not panic")
		}
	}()
	p.Put(b)
}

func TestCheckedUseAfterPut(t *testing.T) {
	needsEveryPut(t)
	// GC off so sync.Pool cannot drop the parked buffer between the Put
	// and the verifying Get.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := NewChecked()
	b := p.Get(2048)
	p.Put(b)
	b[100] = 42 // illegal: write after Put
	defer func() {
		if recover() == nil {
			t.Fatal("Get after a post-Put write did not panic")
		}
	}()
	p.Get(2048)
}

func TestCheckedCleanReuse(t *testing.T) {
	p := NewChecked()
	for i := 0; i < 10; i++ {
		b := p.Get(4096)
		for j := range b {
			b[j] = byte(i)
		}
		p.Put(b)
	}
}

func TestConcurrentGetPut(t *testing.T) {
	p := New()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 2000; i++ {
				b := p.Get(1 + (g*997+i*131)%(256<<10))
				if len(b) == 0 {
					t.Error("empty buffer")
					return
				}
				b[len(b)-1] = byte(i)
				p.Put(b)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
