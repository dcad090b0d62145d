// Command figures regenerates the tables and figures of the paper's
// evaluation section.
//
//	figures -all                  # everything, full scale
//	figures -fig 5 -fig 6         # selected figures
//	figures -table 3 -steps 10    # Table 3 with reduced step count
//	figures -scale quick          # CI-sized sweeps
//	figures -csv out/             # additionally dump CSV per figure
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bench"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")

	var figs, tables multiFlag
	flag.Var(&figs, "fig", "figure to regenerate (5, 6, 7, 8); repeatable")
	flag.Var(&tables, "table", "table to regenerate (1, 2, 3); repeatable")
	var (
		all     = flag.Bool("all", false, "regenerate every table and figure")
		scaleS  = flag.String("scale", "full", "experiment scale: full or quick")
		csvDir  = flag.String("csv", "", "directory to write per-figure CSV files")
		steps   = flag.Int("steps", 10, "BTIO steps for Table 3 (paper default is 40)")
		classes = flag.String("classes", "B,C", "comma-separated BTIO classes for Table 3")
		psFlag  = flag.String("procs", "4,9,16,25", "comma-separated process counts for Table 3")
		iters   = flag.Int("iters", 1, "BTIO compute sweeps per step")
	)
	flag.Parse()

	scale := bench.Full
	if *scaleS == "quick" {
		scale = bench.Quick
	} else if *scaleS != "full" {
		log.Fatalf("unknown scale %q", *scaleS)
	}

	if *all {
		figs = multiFlag{"5", "6", "7", "8"}
		tables = multiFlag{"1", "2", "3"}
	}
	if len(figs) == 0 && len(tables) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	figRunners := map[string]func(bench.Scale) (bench.Figure, error){
		"5": bench.Fig5, "6": bench.Fig6, "7": bench.Fig7, "8": bench.Fig8,
	}
	for _, id := range figs {
		run, ok := figRunners[id]
		if !ok {
			log.Fatalf("unknown figure %q", id)
		}
		t0 := time.Now()
		fig, err := run(scale)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(bench.FormatFigure(fig))
		fmt.Printf("(regenerated at scale %s in %v)\n\n", scale, time.Since(t0).Round(time.Millisecond))
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				log.Fatal(err)
			}
			path := filepath.Join(*csvDir, fmt.Sprintf("fig%s.csv", id))
			if err := os.WriteFile(path, []byte(bench.FigureCSV(fig)), 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}

	for _, id := range tables {
		switch id {
		case "1":
			rows, err := bench.Table1(splitList(*classes))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(bench.FormatTable1(rows))
		case "2":
			rows, err := bench.Table2(splitList(*classes), parseInts(*psFlag))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(bench.FormatTable2(rows))
		case "3":
			cfg := bench.Table3Config{
				Classes:      splitList(*classes),
				Ps:           parseInts(*psFlag),
				Steps:        *steps,
				ComputeIters: *iters,
				Ghost:        1,
				Verify:       true,
			}
			if scale == bench.Quick {
				cfg.Classes = []string{"S", "W"}
				cfg.Ps = []int{4, 9}
				cfg.Steps = 3
			}
			t0 := time.Now()
			rows, err := bench.Table3(cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(bench.FormatTable3(rows))
			fmt.Printf("(steps=%d per run, paper uses 40; regenerated in %v)\n\n",
				cfg.Steps, time.Since(t0).Round(time.Millisecond))
		default:
			log.Fatalf("unknown table %q", id)
		}
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseInts(s string) []int {
	var out []int
	for _, part := range splitList(s) {
		var v int
		if _, err := fmt.Sscanf(part, "%d", &v); err != nil {
			log.Fatalf("bad integer %q", part)
		}
		out = append(out, v)
	}
	return out
}
