package noncontig

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datatype/datatypetest"
	"repro/internal/storage"
)

// memBytes reads a backend's whole contents (Mem's reads lock the spans
// they cover, so the copy is one no write is half-way through).
func memBytes(b storage.Backend) []byte {
	p := make([]byte, b.Size())
	if err := storage.ReadFull(b, p, 0); err != nil {
		panic(err)
	}
	return p
}

func TestParsePattern(t *testing.T) {
	for _, p := range []Pattern{CC, NcC, CNc, NcNc} {
		got, err := ParsePattern(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePattern(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePattern("bogus"); err == nil {
		t.Error("bogus pattern accepted")
	}
}

func TestFiletypeGeometry(t *testing.T) {
	ft, err := Filetype(1, 4, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Size() != 80 {
		t.Errorf("size = %d, want 80", ft.Size())
	}
	if ft.Extent() != 10*4*8 {
		t.Errorf("extent = %d, want %d", ft.Extent(), 10*4*8)
	}
	if lb := datatypetest.LB(ft); lb != 0 {
		t.Errorf("lb = %d, want 0", lb)
	}
	first := int64(-1)
	ft.Walk(func(off, ln int64) {
		if first < 0 {
			first = off
		}
	})
	if first != 8 {
		t.Errorf("first block at %d, want 8 (p*blocklen)", first)
	}
}

func TestConfigDerived(t *testing.T) {
	cfg := Config{P: 4, Blockcount: 16, Blocklen: 8}
	if cfg.DataPerProc() != 128 {
		t.Errorf("DataPerProc = %d", cfg.DataPerProc())
	}
	if cfg.FileSize() != 512 {
		t.Errorf("FileSize = %d", cfg.FileSize())
	}
}

func TestRunAllPatternsBothEnginesBothModes(t *testing.T) {
	for _, pat := range []Pattern{CC, NcC, CNc, NcNc} {
		for _, coll := range []bool{false, true} {
			for _, eng := range []core.Engine{core.Listless, core.ListBased} {
				cfg := Config{
					P: 2, Blockcount: 32, Blocklen: 8,
					Pattern: pat, Collective: coll, Engine: eng,
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%v/%v/coll=%v: %v", pat, eng, coll, err)
				}
				if res.WriteBpp <= 0 || res.ReadBpp <= 0 {
					t.Fatalf("%v/%v/coll=%v: zero bandwidth %+v", pat, eng, coll, res)
				}
			}
		}
	}
}

func TestRunProducesIdenticalFilesAcrossEngines(t *testing.T) {
	for _, pat := range []Pattern{CNc, NcNc} {
		var files [2][]byte
		for i, eng := range []core.Engine{core.Listless, core.ListBased} {
			be := storage.NewMem()
			cfg := Config{
				P: 4, Blockcount: 16, Blocklen: 8,
				Pattern: pat, Collective: true, Engine: eng,
				Backend: be,
			}
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			files[i] = memBytes(be)
		}
		if string(files[0]) != string(files[1]) {
			t.Fatalf("%v: engines produced different files", pat)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{P: 0, Blockcount: 1, Blocklen: 1}); err == nil {
		t.Error("P=0 accepted")
	}
	if _, err := Run(Config{P: 1, Blockcount: 0, Blocklen: 1}); err == nil {
		t.Error("Blockcount=0 accepted")
	}
}

func TestListStatsOnlyForListBased(t *testing.T) {
	base := Config{P: 2, Blockcount: 64, Blocklen: 8, Pattern: NcNc, Collective: true}

	lb := base
	lb.Engine = core.ListBased
	rb, err := Run(lb)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Stats.ListTuples == 0 || rb.Stats.ListBytesSent == 0 {
		t.Errorf("list-based run shows no list work: %+v", rb.Stats)
	}

	ll := base
	ll.Engine = core.Listless
	rl, err := Run(ll)
	if err != nil {
		t.Fatal(err)
	}
	if rl.Stats.ListTuples != 0 {
		t.Errorf("listless run built ol-lists: %+v", rl.Stats)
	}
	if rl.Comm.Bytes >= rb.Comm.Bytes {
		t.Errorf("listless moved more bytes (%d) than list-based (%d)", rl.Comm.Bytes, rb.Comm.Bytes)
	}
}

func TestRepsAccumulate(t *testing.T) {
	cfg := Config{
		P: 2, Blockcount: 16, Blocklen: 8,
		Pattern: CNc, Engine: core.Listless, Reps: 3,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteTime <= 0 || res.ReadTime <= 0 {
		t.Fatalf("times not accumulated: %+v", res)
	}
}
