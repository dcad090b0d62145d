package fotf

import (
	"bytes"
	"fmt"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"path/filepath"
	"strconv"
	"testing"
)

// byteRuns is kernRuns' oracle: the same runs, one byte at a time,
// through bounds-checked slice indexing.
func byteRuns(dst []byte, do, dstride, dwrap int64, src []byte, so, sstride, swrap, bl, q, k int64) {
	for ; k > 0; k-- {
		for i := int64(0); i < q; i++ {
			for b := int64(0); b < bl; b++ {
				dst[do+b] = src[so+b]
			}
			do, so = do+dstride, so+sstride
		}
		do, so = do+dwrap, so+swrap
	}
}

// runSide is one side of a kernRuns call: runs stride apart within a
// stretch and a further wrap apart between stretches.
type runSide struct{ stride, wrap int64 }

// span returns the least and greatest run offset of side s from index
// 0, stepping as kernRuns does.
func (s runSide) span(q, k int64) (lo, hi int64) {
	var o int64
	for j := int64(0); j < k; j++ {
		for i := int64(0); i < q; i++ {
			lo, hi = min(lo, o), max(hi, o)
			o += s.stride
		}
		o += s.wrap
	}
	return lo, hi
}

// kernCall is one kernRuns call over buffers sized to hold exactly its
// runs, plus pad bytes before the lowest and after the highest.
type kernCall struct {
	dst, src []byte
	do, so   int64
	d, s     runSide
	bl, q, k int64
}

func newKernCall(rng *rand.Rand, d, s runSide, bl, q, k, pad int64) kernCall {
	c := kernCall{d: d, s: s, bl: bl, q: q, k: k}
	dlo, dhi := d.span(q, k)
	slo, shi := s.span(q, k)
	c.dst = make([]byte, pad+dhi-dlo+bl+pad)
	c.src = make([]byte, pad+shi-slo+bl+pad)
	rng.Read(c.dst)
	rng.Read(c.src)
	c.do, c.so = pad-dlo, pad-slo
	return c
}

func (c kernCall) run(f func(dst []byte, do, dstride, dwrap int64, src []byte, so, sstride, swrap, bl, q, k int64), dst, src []byte, do, so int64) {
	f(dst, do, c.d.stride, c.d.wrap, src, so, c.s.stride, c.s.wrap, c.bl, c.q, c.k)
}

// mustPanic runs kernRuns over dst and src and requires it to panic
// without writing a byte of dst.
func (c kernCall) mustPanic(t *testing.T, what string, dst, src []byte, do, so int64) {
	t.Helper()
	before := bytes.Clone(dst)
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		c.run(kernRuns, dst, src, do, so)
		return false
	}()
	if !panicked {
		t.Errorf("%s: no panic", what)
	}
	if !bytes.Equal(dst, before) {
		t.Errorf("%s: dst written before the panic", what)
	}
}

// TestKernRunsMatchesByteLoop holds the copy kernel to a byte loop over
// every width it specializes and two it does not, in both directions of
// a pack and strided-to-strided, at positive and negative strides and
// wraps, one stretch and many, from unaligned offsets; and requires a run
// one byte outside either slice to panic before dst is touched.
func TestKernRunsMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bl := range []int64{1, 2, 4, 8, 16, 24, 64} {
		g := bl + 3 // a stride with a hole after every run
		contig := runSide{bl, 0}
		sides := []struct {
			name string
			side runSide
		}{
			{"contig", contig},
			{"fwd", runSide{g, 0}},
			{"back", runSide{-g, 0}},
			{"fwd-wrap", runSide{g, 5}},
			{"back-wrap", runSide{-g, -7}},
			{"fwd-rewind", runSide{g, -3 * g * 4}}, // each stretch starts before the last
		}
		for _, shape := range []struct{ q, k int64 }{{1, 1}, {7, 1}, {4, 5}, {1, 6}} {
			for _, ds := range sides {
				for _, ss := range sides {
					if ds.name != "contig" && ss.name != "contig" && ds.name != ss.name {
						continue // strided-to-strided: each shape once
					}
					for _, pad := range []int64{0, 3} {
						name := fmt.Sprintf("bl=%d/q=%d,k=%d/%s<-%s/pad=%d", bl, shape.q, shape.k, ds.name, ss.name, pad)
						c := newKernCall(rng, ds.side, ss.side, bl, shape.q, shape.k, pad)
						want := bytes.Clone(c.dst)
						c.run(byteRuns, want, c.src, c.do, c.so)
						got := bytes.Clone(c.dst)
						c.run(kernRuns, got, c.src, c.do, c.so)
						if !bytes.Equal(got, want) {
							t.Fatalf("%s: kernRuns differs from the byte loop", name)
						}
						if pad != 0 {
							continue
						}
						c.mustPanic(t, name+": dst one past the end", c.dst[:len(c.dst)-1], c.src, c.do, c.so)
						c.mustPanic(t, name+": src one past the end", c.dst, c.src[:len(c.src)-1], c.do, c.so)
						c.mustPanic(t, name+": dst one before the start", c.dst, c.src, c.do-1, c.so)
						c.mustPanic(t, name+": src one before the start", c.dst, c.src, c.do, c.so-1)
					}
				}
			}
		}
	}

	// Every run of the first stretches is in range; only the last
	// stretch starts one byte before dst.
	c := newKernCall(rng, runSide{16, -80}, runSide{8, 0}, 8, 3, 4, 0)
	if c.do != 3*32 {
		t.Fatalf("rewinding side starts at %d, want its last stretch at 0", c.do)
	}
	c.mustPanic(t, "last stretch before dst", c.dst, c.src, c.do-1, c.so)

	// Offsets step in wrapping arithmetic: a stride and wrap that sum
	// past math.MaxInt64 step back 2 bytes a stretch, as the byte loop
	// does; a stride whose multiples wrap into range is refused.
	c = kernCall{dst: make([]byte, 16), src: make([]byte, 16), do: 14, so: 0, bl: 2, q: 1, k: 8,
		d: runSide{math.MaxInt64, math.MaxInt64}, s: runSide{2, 0}}
	rng.Read(c.src)
	want := bytes.Clone(c.dst)
	c.run(byteRuns, want, c.src, c.do, c.so)
	c.run(kernRuns, c.dst, c.src, c.do, c.so)
	if !bytes.Equal(c.dst, want) {
		t.Fatal("wrapping stretch step: kernRuns differs from the byte loop")
	}
	c = kernCall{dst: make([]byte, 64), src: make([]byte, 64), bl: 8, q: 3, k: 1,
		d: runSide{math.MinInt64 + 8, 0}, s: runSide{8, 0}} // runs at 0, 2^63+8 and 16
	c.mustPanic(t, "stride whose multiples wrap", c.dst, c.src, 0, 0)
	c = kernCall{dst: make([]byte, 64), src: make([]byte, 64), bl: 8, q: 1, k: 2,
		d: runSide{0, math.MinInt64}, s: runSide{8, 0}}
	c.mustPanic(t, "stretch step of math.MinInt64", c.dst, c.src, 0, 0)
}

// TestUnsafeStaysInKernels keeps the package's unsafe code in the one
// file whose every pointer the copy kernel's range check covers.
func TestUnsafeStaysInKernels(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "unsafe" && name != "program_kernels.go" {
				t.Errorf("%s imports unsafe; only program_kernels.go may", name)
			}
		}
	}
}
