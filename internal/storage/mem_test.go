package storage

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// Mem's locking contract (see the type comment), held to its mechanism:
// which lock a call takes and waits for, and what an overlapping call may
// observe — not how long anything takes.  Meant to run under -race.

// regionOf is the region of byte off under m's current mapping.
func regionOf(m *Mem, off int64) int { return int(off >> (memMinShift + m.shift)) }

// uniform reports whether every byte of p is p[0].
func uniform(p []byte) bool {
	for _, b := range p {
		if b != p[0] {
			return false
		}
	}
	return true
}

// TestMemRegionLocks: with one region's lock held by the test, a write to
// another region completes, a read of the held region completes (readers
// share), and a write into the held region waits on exactly that lock
// until the test lets go.
func TestMemRegionLocks(t *testing.T) {
	const size = 1 << 20
	m := NewMem()
	if err := m.Truncate(size); err != nil {
		t.Fatal(err)
	}
	held, other := int64(size/2+100), int64(100)
	r := regionOf(m, held)
	if regionOf(m, other) == r || regionOf(m, size-1) >= memRegions {
		t.Fatalf("regions %d and %d of %d: the offsets do not separate", r, regionOf(m, other), memRegions)
	}

	m.region[r].RLock()
	if _, err := m.WriteAt([]byte("elsewhere"), other); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadAt(make([]byte, 64), held); err != nil {
		t.Fatal(err)
	}
	// The write starts in the region below the held one, whose lock it
	// gets, and runs into the held one.
	payload := bytes.Repeat([]byte("held"), 50)
	from := held - 150
	if regionOf(m, from) != r-1 {
		t.Fatalf("the write starts in region %d, want %d", regionOf(m, from), r-1)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := m.WriteAt(payload, from); err != nil {
			t.Error(err)
		}
	}()
	// A writer waiting for an RWMutex turns new readers away: TryRLock
	// failing is the writer having arrived at this region's lock.
	for m.region[r].TryRLock() {
		m.region[r].RUnlock()
		select {
		case <-done:
			t.Fatal("a write into the held region completed while its lock was held")
		default:
			runtime.Gosched()
		}
	}
	// It takes the locks of its whole span before it moves a byte:
	// nothing has landed, not even in the region it already holds.
	if !allZero(m.data[from : from+int64(len(payload))]) {
		t.Fatal("the blocked write moved bytes before it held all its regions")
	}
	select {
	case <-done:
		t.Fatal("the write completed while the region lock was held")
	default:
	}
	m.region[r].RUnlock()
	<-done
	if got := m.Bytes()[from : from+int64(len(payload))]; !bytes.Equal(got, payload) {
		t.Fatalf("after release the write reads %q", got)
	}
}

// TestMemOverlappingCallsAreAtomic: writers repaint a span of several
// regions in one colour per call — plain and vectored, the batch unsorted —
// while readers, Bytes and writers to a disjoint range run beside them.
// Every reader must see one colour.
func TestMemOverlappingCallsAreAtomic(t *testing.T) {
	const size, rounds = 1 << 20, 200
	m := NewMem()
	if err := m.Truncate(size); err != nil {
		t.Fatal(err)
	}
	lo, hi := int64(size/4), int64(3*size/4)
	if regionOf(m, hi-1)-regionOf(m, lo) < 8 {
		t.Fatal("the span does not cover several regions")
	}
	mid := (lo + hi) / 2
	var wg sync.WaitGroup
	paint := func(colour byte, vectored bool) {
		defer wg.Done()
		p := bytes.Repeat([]byte{colour}, int(hi-lo))
		for i := 0; i < rounds; i++ {
			var err error
			if vectored {
				// Upper half first: the batch is one access whatever its order.
				err = m.WriteAtv([]Segment{{Off: mid, Buf: p[mid-lo:]}, {Off: lo, Buf: p[:mid-lo]}})
			} else {
				_, err = m.WriteAt(p, lo)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}
	read := func(vectored bool) {
		defer wg.Done()
		// A range that straddles the two halves of the vectored batch.
		a, b := make([]byte, 3000), make([]byte, 5000)
		for i := 0; i < rounds; i++ {
			var err error
			if vectored {
				err = m.ReadAtv([]Segment{{Off: hi - int64(len(b)), Buf: b}, {Off: lo, Buf: a}})
			} else {
				a = a[:cap(a)]
				_, err = m.ReadAt(a, mid-1500)
				b = b[:0]
			}
			if err != nil {
				t.Error(err)
				return
			}
			if all := append(a[:len(a):len(a)], b...); !uniform(all) {
				t.Errorf("a read (vectored=%v) saw two writes at once: %#x … %#x", vectored, all[0], all[len(all)-1])
				return
			}
		}
	}
	wg.Add(7)
	go paint(0xA1, false)
	go paint(0xB2, true)
	go read(false)
	go read(true)
	go func() { // Bytes is a snapshot no call is half-way through
		defer wg.Done()
		for i := 0; i < rounds/10; i++ {
			if snap := m.Bytes(); !uniform(snap[lo:hi]) {
				t.Error("Bytes caught a write half done")
				return
			}
		}
	}()
	for _, off := range []int64{0, hi} { // disjoint writers on either side
		go func(off int64) {
			defer wg.Done()
			p := bytes.Repeat([]byte{0xC3}, int(lo))
			for i := 0; i < rounds; i++ {
				if _, err := m.WriteAt(p, off); err != nil {
					t.Error(err)
					return
				}
			}
		}(off)
	}
	wg.Wait()
	if snap := m.Bytes(); !uniform(snap[:lo]) || snap[0] != 0xC3 || !uniform(snap[hi:]) || snap[hi] != 0xC3 {
		t.Error("the disjoint writers' ranges were disturbed")
	}
}

// TestMemGrowthBesideWriters: appenders extend the store — changing its
// backing array and, as it grows, the region mapping — while others write
// inside it; every byte ends up where it was written.
func TestMemGrowthBesideWriters(t *testing.T) {
	const base, piece, pieces, appenders = 64 << 10, 24 << 10, 40, 2
	m := NewMem()
	if err := m.Truncate(base); err != nil {
		t.Fatal(err)
	}
	shift0 := m.shift
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			p := bytes.Repeat([]byte{byte(0x10 + a)}, piece)
			for i := a; i < pieces; i += appenders {
				segs := []Segment{{Off: base + int64(i)*piece, Buf: p}}
				if err := m.WriteAtv(segs); err != nil {
					t.Error(err)
				}
			}
		}(a)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := bytes.Repeat([]byte{byte(0x80 + w)}, base/2)
			for i := 0; i < 100; i++ {
				if _, err := m.WriteAt(p, int64(w)*base/2); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	got := m.Bytes()
	if len(got) != base+pieces*piece {
		t.Fatalf("store is %d bytes, want %d", len(got), base+pieces*piece)
	}
	for w := 0; w < 2; w++ {
		if part := got[w*base/2 : (w+1)*base/2]; !uniform(part) || part[0] != byte(0x80+w) {
			t.Errorf("inside writer %d's range was disturbed", w)
		}
	}
	for i := 0; i < pieces; i++ {
		if part := got[base+i*piece : base+(i+1)*piece]; !uniform(part) || part[0] != byte(0x10+i%appenders) {
			t.Errorf("appended piece %d was disturbed", i)
		}
	}
	if m.shift == shift0 || regionOf(m, int64(cap(m.data))-1) >= memRegions {
		t.Errorf("region size did not grow with the store: shift %d -> %d over %d bytes", shift0, m.shift, cap(m.data))
	}
}

// TestMemTruncateBesideWriters: shrinking and regrowing the store while
// writers work below the cut keeps the zero-tail invariant — what a
// regrow exposes is zeros, never bytes from before the shrink.
func TestMemTruncateBesideWriters(t *testing.T) {
	const size, keep = 256 << 10, 64 << 10
	m := NewMem()
	if _, err := m.WriteAt(bytes.Repeat([]byte{0xEE}, size), 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := bytes.Repeat([]byte{byte(0x40 + w)}, keep/2)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := m.WriteAt(p, int64(w)*keep/2); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	tail := make([]byte, size-keep)
	for i := 0; i < 50; i++ {
		if err := m.Truncate(keep); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := m.Truncate(size); err != nil {
				t.Fatal(err)
			}
		} else if _, err := m.WriteAt([]byte{1}, size-1); err != nil { // regrow by a write past the end
			t.Fatal(err)
		}
		if err := m.ReadAtv([]Segment{{Off: keep, Buf: tail}}); err != nil {
			t.Fatal(err)
		}
		if !allZero(tail[:len(tail)-1]) {
			t.Fatalf("round %d: a regrow exposed bytes from before the shrink", i)
		}
		if _, err := m.WriteAt(bytes.Repeat([]byte{0xEE}, size-keep), keep); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := m.Truncate(keep); err != nil {
		t.Fatal(err)
	}
	if !allZero(m.data[len(m.data):cap(m.data)]) {
		t.Error("data[len:cap] is not all zero after the last shrink")
	}
}

func allZero(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// TestMemVectoredUnsortedOverlapping: a batch is applied in batch order
// whatever its offsets — the later of two overlapping segments wins, past
// the end or inside the store — and a read batch fills every segment,
// zeros past the end.
func TestMemVectoredUnsortedOverlapping(t *testing.T) {
	m := NewMem()
	model := make([]byte, 0, 4096)
	apply := func(segs []Segment) {
		t.Helper()
		if err := m.WriteAtv(segs); err != nil {
			t.Fatal(err)
		}
		for _, s := range segs {
			if end := int(s.Off) + len(s.Buf); end > len(model) {
				model = append(model, make([]byte, end-len(model))...)
			}
			copy(model[s.Off:], s.Buf)
		}
		if got := m.Bytes(); !bytes.Equal(got, model) {
			t.Fatalf("after %d segments the store differs from the sequential model", len(segs))
		}
	}
	fill := func(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }
	// Growing: descending offsets, the second overlapping the first.
	apply([]Segment{{Off: 3000, Buf: fill(1, 500)}, {Off: 2800, Buf: fill(2, 400)}, {Off: 0, Buf: fill(3, 10)}})
	// Inside the store: overlaps both ways, a zero-length segment, a repeat.
	apply([]Segment{{Off: 100, Buf: fill(4, 300)}, {Off: 50, Buf: fill(5, 100)}, {Off: 3400, Buf: nil},
		{Off: 350, Buf: fill(6, 100)}, {Off: 100, Buf: fill(7, 1)}})

	a, b, c := make([]byte, 200), make([]byte, 600), fill(9, 50)
	if err := m.ReadAtv([]Segment{{Off: 3400, Buf: a}, {Off: 0, Buf: b}, {Off: 1 << 30, Buf: c}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a[:100], model[3400:3500]) || !allZero(a[100:]) || !bytes.Equal(b, model[:600]) || !allZero(c) {
		t.Error("a read batch over the end, the start and far past the end filled its segments wrongly")
	}
	if err := m.WriteAtv([]Segment{{Off: 10, Buf: fill(8, 5)}, {Off: -1, Buf: fill(8, 5)}}); err == nil {
		t.Error("a negative offset in a batch was accepted")
	} else if got := m.Bytes(); !bytes.Equal(got, model) {
		t.Error("a refused batch moved bytes")
	}
}
