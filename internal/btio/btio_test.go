package btio

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

func cfg(class string, p int) Config {
	cl, err := ClassByName(class)
	if err != nil {
		panic(err)
	}
	return Config{Class: cl, P: p}
}

func TestClassLookup(t *testing.T) {
	for _, c := range Classes {
		got, err := ClassByName(c.Name)
		if err != nil || got != c {
			t.Errorf("ClassByName(%q) = %v, %v", c.Name, got, err)
		}
	}
	if _, err := ClassByName("Z"); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestQValidation(t *testing.T) {
	if _, err := cfg("S", 3).Q(); err == nil {
		t.Error("non-square P accepted")
	}
	if q, err := cfg("S", 16).Q(); err != nil || q != 4 {
		t.Errorf("Q(16) = %d, %v", q, err)
	}
}

// TestTable1 checks the data-volume characterization against the paper.
func TestTable1(t *testing.T) {
	cases := []struct {
		class string
		dStep int64 // bytes (paper: 42 MByte / 170 MByte)
		dRun  int64 // bytes (paper: 1.7 GByte / 6.8 GByte)
	}{
		{"B", 42448320, 1697932800},
		{"C", 170061120, 6802444800},
	}
	for _, c := range cases {
		cf := cfg(c.class, 4)
		if got := cf.DStep(); got != c.dStep {
			t.Errorf("class %s: DStep = %d, want %d", c.class, got, c.dStep)
		}
		if got := cf.DRun(); got != c.dRun {
			t.Errorf("class %s: DRun = %d, want %d", c.class, got, c.dRun)
		}
		// Sanity versus the paper's rounded MB/GB figures.
		if mb := float64(cf.DStep()) / 1e6; c.class == "B" && (mb < 42 || mb > 43) {
			t.Errorf("class B DStep = %.1f MB, paper says 42", mb)
		}
	}
}

// TestTable2 checks N_block and S_block against the paper's exact values.
func TestTable2(t *testing.T) {
	cases := []struct {
		class            string
		p                int
		nBlock, sBlock64 int64
	}{
		{"B", 4, 5202, 2040},
		{"B", 9, 3468, 1360},
		{"B", 16, 2601, 1020},
		{"B", 25, 2080, 816},
		{"C", 4, 13122, 3240},
		{"C", 9, 8748, 2160},
		{"C", 16, 6561, 1620},
		{"C", 25, 5248, 1296},
	}
	for _, c := range cases {
		cf := cfg(c.class, c.p)
		nb, err := cf.NBlock()
		if err != nil {
			t.Fatal(err)
		}
		sb, err := cf.SBlock()
		if err != nil {
			t.Fatal(err)
		}
		if nb != c.nBlock {
			t.Errorf("class %s P=%d: NBlock = %d, want %d", c.class, c.p, nb, c.nBlock)
		}
		if sb != c.sBlock64 {
			t.Errorf("class %s P=%d: SBlock = %d, want %d", c.class, c.p, sb, c.sBlock64)
		}
	}
}

func TestDecompositionCoversGridExactlyOnce(t *testing.T) {
	for _, p := range []int{1, 4, 9, 16} {
		q := 0
		for q*q != p {
			q++
		}
		const n = 13 // deliberately not divisible by q
		seen := make(map[[3]int]int)
		for r := 0; r < p; r++ {
			d := newDecomp(n, q, r, 0)
			if len(d.cells) != q {
				t.Fatalf("P=%d rank %d: %d cells, want %d", p, r, len(d.cells), q)
			}
			for _, c := range d.cells {
				for z := c.start[2]; z < c.start[2]+c.size[2]; z++ {
					for y := c.start[1]; y < c.start[1]+c.size[1]; y++ {
						for x := c.start[0]; x < c.start[0]+c.size[0]; x++ {
							seen[[3]int{x, y, z}]++
						}
					}
				}
			}
		}
		if len(seen) != n*n*n {
			t.Fatalf("P=%d: covered %d points, want %d", p, len(seen), n*n*n)
		}
		for pt, cnt := range seen {
			if cnt != 1 {
				t.Fatalf("P=%d: point %v covered %d times", p, pt, cnt)
			}
		}
	}
}

func TestFiletypeSizesSumToArray(t *testing.T) {
	const n, p, q = 12, 9, 3
	var total int64
	for r := 0; r < p; r++ {
		d := newDecomp(n, q, r, 0)
		ft, err := d.filetype()
		if err != nil {
			t.Fatal(err)
		}
		total += ft.Size()
		if ft.Extent() != int64(cellBytes)*n*n*n {
			t.Fatalf("rank %d: extent = %d", r, ft.Extent())
		}
	}
	if total != int64(cellBytes)*n*n*n {
		t.Fatalf("filetype sizes sum to %d, want %d", total, cellBytes*n*n*n)
	}
}

// exactNBlock returns the exact number of contiguous runs of rank's
// fileview per step under the actual (uneven) cell split.
func exactNBlock(c Config, rank int) (int64, error) {
	q, err := c.Q()
	if err != nil {
		return 0, err
	}
	d := newDecomp(c.Class.Grid, q, rank, 0)
	var runs int64
	for _, cl := range d.cells {
		runs += int64(cl.size[1]) * int64(cl.size[2])
	}
	return runs, nil
}

func TestExactNBlockMatchesFormulaWhenDivisible(t *testing.T) {
	// Class S (12³) with P=4 (q=2): 12 divisible by 2 → exact == formula.
	cf := cfg("S", 4)
	want, err := cf.NBlock()
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		got, err := exactNBlock(cf, r)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("rank %d: exact NBlock = %d, want %d", r, got, want)
		}
	}
}

func TestRunClassSBothEnginesIdenticalFiles(t *testing.T) {
	var files [2][]byte
	for i, eng := range []core.Engine{core.Listless, core.ListBased} {
		be := storage.NewMem()
		c := cfg("S", 4)
		c.Engine = eng
		c.Steps = 3
		c.Ghost = 1
		c.ComputeIters = 1
		c.Verify = true
		c.Backend = be
		res, err := Run(c)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if !res.Verified {
			t.Fatalf("%v: verification failed", eng)
		}
		if res.BytesWritten != 3*c.DStep() {
			t.Fatalf("%v: wrote %d bytes, want %d", eng, res.BytesWritten, 3*c.DStep())
		}
		files[i] = be.Bytes()
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("engines produced different BTIO files")
	}
	// File must contain steps snapshots.
	c := cfg("S", 4)
	if int64(len(files[0])) != 3*c.DStep() {
		t.Fatalf("file size %d, want %d", len(files[0]), 3*c.DStep())
	}
}

func TestRunPlacesValuesAtGlobalOffsets(t *testing.T) {
	// Without compute, the file must hold seedValue at each position.
	be := storage.NewMem()
	c := cfg("S", 4)
	c.Steps = 1
	c.Ghost = 2
	c.Verify = true
	c.Backend = be
	if _, err := Run(c); err != nil {
		t.Fatal(err)
	}
	raw := be.Bytes()
	n := c.Class.Grid
	for _, pt := range [][4]int{{0, 0, 0, 0}, {4, 11, 3, 7}, {2, 5, 11, 11}, {1, 3, 0, 6}} {
		m, i, j, k := pt[0], pt[1], pt[2], pt[3]
		off := 8 * (m + 5*(i+n*(j+n*k)))
		got := float64frombits(binary.LittleEndian.Uint64(raw[off:]))
		want := seedValue(m, i, j, k, n)
		if got != want {
			t.Errorf("value at (%d,%d,%d,%d) = %v, want %v", m, i, j, k, got, want)
		}
	}
}

func TestRunRejectsBadConfigs(t *testing.T) {
	c := cfg("S", 3)
	if _, err := Run(c); err == nil {
		t.Error("non-square P accepted")
	}
	c = cfg("S", 256) // q=16 > grid 12
	if _, err := Run(c); err == nil {
		t.Error("process grid larger than array accepted")
	}
}

func TestSweepIsDeterministicAndBounded(t *testing.T) {
	d := newDecomp(8, 2, 0, 1)
	mt, err := d.memtype()
	if err != nil {
		t.Fatal(err)
	}
	a := make([]byte, mt.Extent())
	b := make([]byte, mt.Extent())
	d.fill(a, 0)
	d.fill(b, 0)
	d.sweep(a)
	d.sweep(b)
	if !bytes.Equal(a, b) {
		t.Fatal("sweep is not deterministic")
	}
	// Values stay finite and change from the seed.
	changed := false
	seed := make([]byte, mt.Extent())
	d.fill(seed, 0)
	if !bytes.Equal(a, seed) {
		changed = true
	}
	if !changed {
		t.Fatal("sweep did not modify the field")
	}
}

func TestGhostZeroMemtypeContiguous(t *testing.T) {
	d := newDecomp(12, 2, 0, 0)
	mt, err := d.memtype()
	if err != nil {
		t.Fatal(err)
	}
	if !mt.Dense() {
		t.Fatal("ghost-0 memtype should be dense")
	}
	d1 := newDecomp(12, 2, 0, 1)
	mt1, err := d1.memtype()
	if err != nil {
		t.Fatal(err)
	}
	if mt1.Dense() {
		t.Fatal("ghosted memtype should be non-contiguous")
	}
}
