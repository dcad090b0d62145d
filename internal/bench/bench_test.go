package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/flatten"
	"repro/internal/noncontig"
)

func TestFiguresQuickProduceAllSeries(t *testing.T) {
	for _, run := range []func(Scale) (Figure, error){Fig5, Fig6, Fig7, Fig8} {
		fig, err := run(Quick)
		if err != nil {
			t.Fatal(err)
		}
		if len(fig.Series) != 6 {
			t.Fatalf("%s: %d series, want 6", fig.Name, len(fig.Series))
		}
		for _, s := range fig.Series {
			if len(s.Points) == 0 {
				t.Fatalf("%s series %s: no points", fig.Name, s.Name)
			}
			for _, p := range s.Points {
				if p.Write <= 0 || p.Read <= 0 {
					t.Fatalf("%s series %s x=%d: non-positive bandwidth", fig.Name, s.Name, p.X)
				}
			}
		}
		txt := FormatFigure(fig)
		if !strings.Contains(txt, fig.Name) || !strings.Contains(txt, "[write]") || !strings.Contains(txt, "[read]") {
			t.Fatalf("%s: bad formatting:\n%s", fig.Name, txt)
		}
		csv := FigureCSV(fig)
		if !strings.HasPrefix(csv, "x,series,") {
			t.Fatalf("%s: bad CSV", fig.Name)
		}
	}
}

// sweepWork runs every point of a sweep once under each engine and
// asserts what the paper's mechanism promises at each, whatever the
// sweep: the listless engine moves the same bytes and builds and sends
// no ol-list, and its fileview exchange does not grow along the sweep
// (the integers in the encoding widen by a few bytes, the tree does
// not).  check sees rank 0's list-based counters at each point.
func sweepWork(t *testing.T, label string, xs []int64, point func(x int64) noncontig.Config, check func(x int64, listBased core.Stats)) {
	t.Helper()
	const viewBytesSlack = 8
	var viewLo, viewHi int64
	for i, x := range xs {
		cfg := point(x)
		cfg.Reps = 1
		var st [2]core.Stats
		for j, e := range []core.Engine{core.Listless, core.ListBased} {
			cfg.Engine = e
			res, err := noncontig.Run(cfg)
			if err != nil {
				t.Fatalf("%s x=%d %v: %v", label, x, e, err)
			}
			st[j] = res.Stats
		}
		ll, lb := st[0], st[1]
		if ll.ListTuples != 0 || ll.ListBytesSent != 0 {
			t.Errorf("%s x=%d: listless built %d tuples, sent %d list bytes; want none",
				label, x, ll.ListTuples, ll.ListBytesSent)
		}
		if ll.BytesWritten != lb.BytesWritten || ll.BytesRead != lb.BytesRead {
			t.Errorf("%s x=%d: engines moved different volumes: %+v vs %+v", label, x, ll, lb)
		}
		check(x, lb)
		if i == 0 || ll.ViewBytesSent < viewLo {
			viewLo = ll.ViewBytesSent
		}
		viewHi = max(viewHi, ll.ViewBytesSent)
	}
	if viewHi-viewLo > viewBytesSlack {
		t.Errorf("%s: fileview exchange grew from %d to %d bytes across the sweep", label, viewLo, viewHi)
	}
}

func TestListlessNeverLoses(t *testing.T) {
	// The paper's §4.1 observation, "listless I/O never performs worse
	// than list-based I/O", as the mechanism behind it: at every point of
	// the quick Figure 7 sweep (the regime where the gap is smallest) the
	// listless engine does no list work at all, where the list-based
	// engine builds a list.  The wall-clock form of the claim is
	// EXPERIMENTS.md's Figure 7 table.
	for _, pat := range []noncontig.Pattern{noncontig.NcNc, noncontig.NcC, noncontig.CNc} {
		sweepWork(t, pat.String(), sblockSweep(Quick),
			func(sb int64) noncontig.Config {
				return noncontig.Config{P: 2, Blockcount: 8, Blocklen: sb, Pattern: pat}
			},
			func(sb int64, lb core.Stats) {
				if lb.ListTuples == 0 {
					t.Errorf("%v S_block=%d: list-based built no tuples", pat, sb)
				}
			})
	}
}

func TestSmallBlockGapDirection(t *testing.T) {
	// For 8-byte blocks and a non-contiguous file, listless beats
	// list-based by more the longer the vector (Figures 5 and 6), because
	// the list-based work grows with N_block and the listless work does
	// not: at least one tuple built per block, and in a collective one
	// tuple shipped per block, against zero tuples and a fileview
	// exchange of constant size.
	for _, collective := range []bool{false, true} {
		for _, pat := range []noncontig.Pattern{noncontig.NcNc, noncontig.CNc} {
			label := fmt.Sprintf("collective=%v %v", collective, pat)
			sweepWork(t, label, nblockSweep(Quick),
				func(nb int64) noncontig.Config {
					return noncontig.Config{P: 2, Blockcount: nb, Blocklen: 8, Pattern: pat, Collective: collective}
				},
				func(nb int64, lb core.Stats) {
					if lb.ListTuples < nb {
						t.Errorf("%s N_block=%d: list-based built %d tuples, want at least one per block",
							label, nb, lb.ListTuples)
					}
					if collective && lb.ListBytesSent < flatten.TupleBytes*nb {
						t.Errorf("%s N_block=%d: list-based sent %d list bytes, want at least %d per block",
							label, nb, lb.ListBytesSent, flatten.TupleBytes)
					}
				})
		}
	}
}

func TestTable1Values(t *testing.T) {
	rows, err := Table1([]string{"B", "C"})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].DStep != 42448320 || rows[1].DStep != 170061120 {
		t.Fatalf("Table 1 DStep wrong: %+v", rows)
	}
	txt := FormatTable1(rows)
	if !strings.Contains(txt, "42 MB") {
		t.Fatalf("format: %s", txt)
	}
	if _, err := Table1([]string{"Z"}); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestTable2Values(t *testing.T) {
	rows, err := Table2([]string{"B"}, []int{4, 9, 16, 25})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][2]int64{4: {5202, 2040}, 9: {3468, 1360}, 16: {2601, 1020}, 25: {2080, 816}}
	for _, r := range rows {
		w := want[r.P]
		if r.NBlock != w[0] || r.SBlock != w[1] {
			t.Errorf("P=%d: (%d,%d), want %v", r.P, r.NBlock, r.SBlock, w)
		}
	}
	if s := FormatTable2(rows); !strings.Contains(s, "5202") {
		t.Fatalf("format: %s", s)
	}
}

func TestTable3QuickRuns(t *testing.T) {
	rows, err := Table3(Table3Config{
		Classes: []string{"S"}, Ps: []int{4}, Steps: 2, ComputeIters: 1, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.DTListBase <= 0 || r.DTListless <= 0 || r.RIO <= 0 {
		t.Fatalf("bad row: %+v", r)
	}
	if s := FormatTable3(rows); !strings.Contains(s, "r_io") {
		t.Fatalf("format: %s", s)
	}
}
