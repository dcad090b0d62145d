package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/datatype"
)

func encodeBoth(g geometry) []byte {
	return append(datatype.Encode(g.ftype), datatype.Encode(g.mtype)...)
}

// small returns a short-sized copy of every kind of workload: the same
// code paths as the seven, a few KiB per op.
func small() []*workload {
	out := []*workload{
		{name: "coll", collective: true, build: fig4(512, 8)},
		{name: "indep", build: fig4(512, 8)},
		{name: "tcp", collective: true, tcp: true, build: fig4(16, 1024)},
		{name: "tier", collective: true, tier: true, build: fig4(256, 64)},
		{name: "view", tier: true, sieveDensity: 0.25, build: sparseView},
	}
	for _, w := range out {
		w.traceOps = 4
	}
	return out
}

func shortRun(t *testing.T, wl *workload, rec *recorder, corrupt func(rank, round, op int, rbuf []byte)) *runResult {
	t.Helper()
	res, err := run(runConfig{
		wl: wl, seed: defaultSeed, tmp: t.TempDir(), started: time.Now(), rec: rec,
		rounds: 2, fixedOps: 3, corrupt: corrupt,
	})
	if err != nil {
		t.Fatalf("%s: %v", wl.name, err)
	}
	return res
}

// TestEveryKindVerifies runs each kind of workload, untraced and traced,
// and expects every op to pass the oracle.
func TestEveryKindVerifies(t *testing.T) {
	for _, wl := range small() {
		for _, rec := range []*recorder{nil, newRecorder()} {
			res := shortRun(t, wl, rec, nil)
			if want := 2*3*2 + 2*warmups; res.attempted != want || res.failed != 0 {
				t.Errorf("%s (traced=%v): %d failed of %d attempted, want 0 of %d", wl.name, rec != nil, res.failed, res.attempted, want)
			}
		}
	}
}

// TestFlippedByteIsCounted is the self-test of the verification: one
// wrong byte in one read-back buffer makes exactly that op count as failed.
func TestFlippedByteIsCounted(t *testing.T) {
	wl := small()[0]
	g, err := wl.build(defaultSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	var first int64 = -1 // a data position of rank 0's buffer
	g.mtype.Walk(func(off, _ int64) {
		if first < 0 {
			first = off
		}
	})
	flips := 0
	res := shortRun(t, wl, nil, func(rank, round, op int, rbuf []byte) {
		if rank == 0 && round == 1 && op == 0 {
			flips++
			rbuf[first] ^= 0x40
		}
	})
	if flips != 1 || res.failed != 1 {
		t.Fatalf("flipped %d bytes, %d ops counted failed; want 1 and 1", flips, res.failed)
	}
}

func TestOracleSeesGapsAndOrder(t *testing.T) {
	g, err := fig4(4, 2)(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, g.bufLen())
	fillData(buf, g, 7, 1)
	for _, gap := range []int{2, 3, 6, 7} {
		if buf[gap] != 0 {
			t.Fatalf("fillData wrote into the gap at %d", gap)
		}
	}
	img := make([]byte, g.fileEnd())
	paintImage(img, buf, g, nil)
	// Rank 1 of 2 owns file bytes 2-3, 6-7, 10-11, 14-15; its memory
	// blocks sit at 0-1, 4-5, 8-9, 12-13.
	for k := 0; k < 4; k++ {
		for b := 0; b < 2; b++ {
			if img[4*k+2+b] != buf[4*k+b] {
				t.Errorf("file byte %d holds %d, want memory byte %d = %d", 4*k+2+b, img[4*k+2+b], 4*k+b, buf[4*k+b])
			}
			if img[4*k+b] != 0 {
				t.Errorf("file byte %d belongs to rank 0 and was painted", 4*k+b)
			}
		}
	}
	other := append([]byte(nil), buf...)
	restamp(other, g, 0x5a)
	if sameData(other, buf, g) {
		t.Error("restamped data compares equal")
	}
	other[2] = 99 // a gap byte is not data
	restamp(other, g, 0x5a)
	if !sameData(other, buf, g) {
		t.Error("restamping twice does not restore the data")
	}
}

// TestEmittedNamesAndCompareRoundTrip runs both kinds of run on a small
// workload and checks that exactly the declared metrics come out, with
// legal names and the declared units, and that a result file written from
// them round-trips through -compare.
func TestEmittedNamesAndCompareRoundTrip(t *testing.T) {
	wl := small()[3]  // the tier: every layer takes part
	wl.traceOps = 300 // long enough for the CPU profile of the traced round to hold samples
	tmp := t.TempDir()
	e2e, err := endToEndRun(wl, 1, func(length time.Duration) (roundReport, error) {
		return measureRound(wl, defaultSeed, length, tmp, time.Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	layers, err := tracedRun(wl, defaultSeed, 1, tmp, tmp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(tmp, "trace-tier.json")); err != nil {
		t.Errorf("no span file: %v", err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, c := range []struct {
		res  result
		defs []metricDef
	}{{e2e, endToEnd}, {layers, perLayer}} {
		if !c.res.Correct || c.res.Failed != 0 || c.res.Attempted < 1 {
			t.Errorf("result not correct: %+v", c.res)
		}
		if len(c.res.Metrics) != len(c.defs) {
			t.Errorf("%d metrics emitted, %d declared", len(c.res.Metrics), len(c.defs))
		}
		for _, d := range c.defs {
			m, ok := c.res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || !nameRE.MatchString(d.Name) {
				t.Errorf("metric %s: emitted %+v (present %v), declared unit %s", d.Name, m, ok, d.Unit)
			}
		}
	}
	for _, d := range endToEnd {
		if e2e.Metrics[d.Name].Value <= 0 {
			t.Errorf("end-to-end metric %s is %v; it may never be 0", d.Name, e2e.Metrics[d.Name].Value)
		}
	}
	shares := 0.0
	for _, n := range []string{"core.copy_share", "core.exchange_share", "core.storage_share", "core.other_share"} {
		shares += layers.Metrics[n].Value
	}
	if shares < 0.999999 || shares > 1.000001 {
		t.Errorf("the four core shares sum to %v, want 1", shares)
	}

	// The result line round-trips, and a suite file built from it compares
	// clean against itself.
	line, err := json.Marshal(e2e)
	if err != nil {
		t.Fatal(err)
	}
	back, err := parseResult(append([]byte("noise\n"), append(line, '\n')...))
	if err != nil || len(back.Metrics) != len(endToEnd) {
		t.Fatalf("result line did not round-trip: %v %+v", err, back)
	}
	sr := suiteResults{Runs: 3, Values: map[string]map[string][]float64{}, Attempted: map[string]int{}, Failed: map[string]int{}}
	for _, w := range workloads {
		sr.Values[w.name] = map[string][]float64{}
		for n, m := range back.Metrics {
			sr.Values[w.name][n] = []float64{m.Value, m.Value * 1.01, m.Value * 0.99}
		}
		sr.Attempted[w.name] = back.Attempted
	}
	data, err := json.Marshal(&sr)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(tmp, "results.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var table strings.Builder
	if err := compareFiles(&table, path, path); err != nil {
		t.Fatalf("a result file does not agree with itself: %v\n%s", err, table.String())
	}
	if rows := strings.Count(table.String(), verdictSame); rows != len(workloads)*(len(endToEnd)+1) {
		t.Errorf("%d rows say %q, want one per workload and metric (%d)\n%s", rows, verdictSame, len(workloads)*(len(endToEnd)+1), table.String())
	}
}
