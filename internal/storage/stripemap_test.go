package storage

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestStripeGeomEach is the table-driven contract of the shared stripe
// mapping: the exact per-stripe pieces of a global range, covering
// zero-length ranges, exact stripe-boundary alignment, and segments
// spanning several stripes and rows.
func TestStripeGeomEach(t *testing.T) {
	type piece struct {
		stripe   int
		localOff int64
		lo, hi   int64
	}
	cases := []struct {
		name  string
		geom  StripeGeom
		off   int64
		n     int64
		wants []piece
	}{
		{
			name: "zero-length",
			geom: StripeGeom{Unit: 4, Count: 2},
			off:  7, n: 0,
			wants: nil,
		},
		{
			name: "within-one-unit",
			geom: StripeGeom{Unit: 8, Count: 3},
			off:  2, n: 4,
			wants: []piece{{0, 2, 0, 4}},
		},
		{
			name: "exact-unit",
			geom: StripeGeom{Unit: 4, Count: 2},
			off:  4, n: 4,
			wants: []piece{{1, 0, 0, 4}},
		},
		{
			name: "ends-on-boundary",
			geom: StripeGeom{Unit: 4, Count: 2},
			off:  2, n: 2,
			wants: []piece{{0, 2, 0, 2}},
		},
		{
			name: "starts-on-boundary-spans-two",
			geom: StripeGeom{Unit: 4, Count: 2},
			off:  4, n: 6,
			wants: []piece{{1, 0, 0, 4}, {0, 4, 4, 6}},
		},
		{
			name: "spans-row-wrap",
			geom: StripeGeom{Unit: 4, Count: 2},
			off:  6, n: 8,
			// units 1 (stripe1), 2 (stripe0 row1), 3 (stripe1 row1)
			wants: []piece{{1, 2, 0, 2}, {0, 4, 2, 6}, {1, 4, 6, 8}},
		},
		{
			name: "multi-stripe-multi-row",
			geom: StripeGeom{Unit: 2, Count: 3},
			off:  1, n: 9,
			// global bytes 1..9: units 0..4
			wants: []piece{{0, 1, 0, 1}, {1, 0, 1, 3}, {2, 0, 3, 5}, {0, 2, 5, 7}, {1, 2, 7, 9}},
		},
		{
			name: "single-stripe-degenerate",
			geom: StripeGeom{Unit: 4, Count: 1},
			off:  3, n: 6,
			wants: []piece{{0, 3, 0, 1}, {0, 4, 1, 5}, {0, 8, 5, 6}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []piece
			err := tc.geom.Each(tc.off, tc.n, func(stripe int, localOff, lo, hi int64) error {
				got = append(got, piece{stripe, localOff, lo, hi})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.wants) {
				t.Fatalf("pieces = %+v, want %+v", got, tc.wants)
			}
			for i := range got {
				if got[i] != tc.wants[i] {
					t.Fatalf("piece %d = %+v, want %+v", i, got[i], tc.wants[i])
				}
			}
		})
	}
}

// TestStripeGeomLocalGlobalLen checks LocalLen against a brute-force
// byte count and GlobalLen as its inverse.
func TestStripeGeomLocalGlobalLen(t *testing.T) {
	for _, g := range []StripeGeom{{Unit: 1, Count: 1}, {Unit: 4, Count: 2}, {Unit: 3, Count: 3}, {Unit: 8, Count: 5}} {
		for n := int64(0); n <= 4*g.Unit*int64(g.Count)+3; n++ {
			counts := make([]int64, g.Count)
			for b := int64(0); b < n; b++ {
				s, local := g.Locate(b)
				if counts[s] != local {
					t.Fatalf("geom %+v: byte %d lands at local %d on stripe %d, want dense %d",
						g, b, local, s, counts[s])
				}
				counts[s]++
			}
			for i := 0; i < g.Count; i++ {
				if got := g.LocalLen(n, i); got != counts[i] {
					t.Fatalf("geom %+v: LocalLen(%d, %d) = %d, want %d", g, n, i, got, counts[i])
				}
				// GlobalLen inverts: the smallest global length holding
				// stripe i's counts[i] bytes is at most n and reproduces
				// the same local length.
				if counts[i] > 0 {
					gl := g.GlobalLen(counts[i], i)
					if gl > n {
						t.Fatalf("geom %+v: GlobalLen(%d, %d) = %d > n=%d", g, counts[i], i, gl, n)
					}
					if back := g.LocalLen(gl, i); back != counts[i] {
						t.Fatalf("geom %+v: LocalLen(GlobalLen(%d,%d)=%d, %d) = %d", g, counts[i], i, gl, i, back)
					}
				}
			}
		}
	}
}

// TestStripedValidation: a geometry without a positive unit or a
// stripe is refused.
func TestStripedValidation(t *testing.T) {
	for _, g := range []StripeGeom{{Unit: 0, Count: 1}, {Unit: 64, Count: 0}, {Unit: -4, Count: 2}} {
		if err := g.Validate(); err == nil {
			t.Errorf("geometry %+v accepted", g)
		}
	}
	if err := (StripeGeom{Unit: 1, Count: 1}).Validate(); err != nil {
		t.Error(err)
	}
}

// TestStripedVectored checks SplitSegs' per-stripe regrouping against a
// flat store: a batch written through the split onto one Mem per stripe
// and read back through it gives the bytes the flat store gives, and a
// negative offset is refused.
func TestStripedVectored(t *testing.T) {
	g := StripeGeom{Unit: 4, Count: 3}
	stripes := []*Mem{NewMem(), NewMem(), NewMem()}
	each := func(segs []Segment, do func(*Mem, []Segment) error) {
		t.Helper()
		bySrv, err := SplitSegs(g, segs)
		if err != nil {
			t.Fatal(err)
		}
		for i, sub := range bySrv {
			if err := do(stripes[i], sub); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref := NewMem()
	data := make([]byte, 96)
	rand.New(rand.NewSource(1)).Read(data)
	// Segments of varied shapes: zero-length, boundary-exact, spanning.
	offs := []int64{0, 3, 4, 11, 12, 40}
	lens := []int64{0, 5, 4, 1, 20, 17}
	var segs []Segment
	pos := int64(0)
	for i := range offs {
		segs = append(segs, Segment{Off: offs[i], Buf: data[pos : pos+lens[i]]})
		pos += lens[i]
	}
	each(segs, (*Mem).WriteAtv)
	if err := ref.WriteAtv(segs); err != nil {
		t.Fatal(err)
	}
	var size int64
	for i, m := range stripes {
		size = max(size, g.GlobalLen(m.Size(), i))
	}
	if size != 57 || ref.Size() != 57 {
		t.Fatalf("size = %d striped, %d flat, want 57", size, ref.Size())
	}
	got := make([]byte, 60)
	want := make([]byte, 60)
	each([]Segment{{Off: 1, Buf: got[:30]}, {Off: 31, Buf: got[30:]}}, func(m *Mem, sub []Segment) error {
		return ReadAtv(m, sub)
	})
	if err := ref.ReadAtv([]Segment{{Off: 1, Buf: want[:30]}, {Off: 31, Buf: want[30:]}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("vectored striped read differs from flat reference")
	}
	if _, err := SplitSegs(g, []Segment{{Off: -1, Buf: make([]byte, 4)}}); err == nil {
		t.Fatal("negative offset accepted")
	}
}
