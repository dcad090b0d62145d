package repro

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameDeclaredTests: every Benchmark*, Test* and Fuzz* name that
// DESIGN.md, README.md, ROADMAP.md, EXPERIMENTS.md or the verify skill's
// SKILL.md cites is declared in some _test.go file of the repository, so
// that a citation cannot outlive the benchmark or test it names.
func TestDocsNameDeclaredTests(t *testing.T) {
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Benchmark|Test|Fuzz)[A-Za-z0-9_]*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, build output
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`\b(?:Benchmark|Test|Fuzz)[A-Z][A-Za-z0-9_]*`)
	for _, doc := range []string{"DESIGN.md", "README.md", "ROADMAP.md", "EXPERIMENTS.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		src, err := os.ReadFile(doc)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cited.FindAllString(string(src), -1) {
			if !declared[name] {
				t.Errorf("%s cites %s, which no _test.go file declares", doc, name)
			}
		}
	}
}

// deletedNames matches a name of something deleted: the session service,
// the metrics registry and its flags, tileio and the spare BTIO front
// ends, darray, the file pointers, shared, ordered, nonblocking and split
// access, preallocation, Proc.Split, the copy-program ablation, the
// fileview-cache and mergeview ablations, the root testing.B suite and
// the IOP's direct-window path and mpi's Gather.
// Each alternative ends in a bracket, so that this source does not match
// itself.
var deletedNames = regexp.MustCompile(`internal/sessio[n]|Options\.Gat[e]|ErrRejecte[d]|ClientOptions\{[^}]*Conn[s]|NewRegio[n]|PhaseSessio[n]|PhaseCach[e]|internal/ob[s]|obs\.Registr[y]|GaugeFun[c]|-metrics-(addr|fd|pus[h])|no-metric[s]|internal/tilei[o]|cmd/tilei[o]|cmd/bti[o]|btiomin[i]|blockcycli[c]|Darra[y]|WriteShare[d]|ReadShare[d]|WriteOrdere[d]|ReadOrdere[d]|IWriteA[t]|IReadA[t]|AtAllBegi[n]|Preallocat[e]|func \(p \*Proc\) Spli[t]|DisableProgra[m]|no-progra[m]|DisableViewCach[e]|DisableMergeChec[k]|BenchmarkAblatio[n]|BenchmarkFi[g]|directGathe[r]|directSen[d]|winBatc[h]|lentSeg[s]|chunkSeg[s]|viewSeg[s]|func \(p \*Proc\) Gathe[r]|\.Gather[(]`)

// TestDeletedNamesStayDeleted: no Go, YAML or Markdown file names
// anything deleted (deletedNames).  Of the top-level Markdown files only
// README.md and DESIGN.md describe the current code; the others are
// history, planning and reference notes and, like benchmark/ and
// results/, record what was deleted, so they are not searched.
func TestDeletedNamesStayDeleted(t *testing.T) {
	skipDirs := map[string]bool{
		"benchmark": true, "results": true, ".git": true, ".bench_build": true,
	}
	topDocs := map[string]bool{"README.md": true, "DESIGN.md": true}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && skipDirs[path] {
			return filepath.SkipDir
		}
		if filepath.Dir(path) == "." && filepath.Ext(path) == ".md" && !topDocs[path] {
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".yml", ".md":
		default:
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if m := deletedNames.FindString(line); m != "" {
				t.Errorf("%s:%d names %q, which was deleted", path, i+1, m)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTypedLoanSites: in-process an IOP moves a remote share in place
// from the AP's loan (SendRef), so nothing under internal/ delivers or
// takes lent slices as a message, and core lends a write's slices
// (SendSegs, through lendShare) and posts a read's destination (Post,
// through postShares) only on a wired world, each from one call site.
// Lines are matched as text, comments included.
func TestTypedLoanSites(t *testing.T) {
	files := map[string][]string{} // non-test Go file under internal/ → its lines
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		files[filepath.ToSlash(path)] = strings.Split(string(src), "\n")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	core := func(path string) bool { return strings.HasPrefix(path, "internal/core/") }
	// sites lists the lines of the files keep selects that contain s.
	sites := func(keep func(string) bool, s string) (out []string) {
		for path, lines := range files {
			for i, line := range lines {
				if keep(path) && strings.Contains(line, s) {
					out = append(out, fmt.Sprintf("%s:%d: %s", path, i+1, strings.TrimSpace(line)))
				}
			}
		}
		return out
	}
	segMessage := regexp.MustCompile(`RecvSeg[s]|Segs +\[\]\[\]byt[e]|\.Segs != ni[l]`)
	for path, lines := range files {
		for i, line := range lines {
			if m := segMessage.FindString(line); m != "" {
				t.Errorf("%s:%d: %q delivers or takes lent slices as a message", path, i+1, m)
			}
		}
	}
	for _, c := range []struct{ call, file string }{
		{"SendSegs(", "internal/core/collective_window.go"},
		{"Post(", "internal/core/collective_exchange.go"},
	} {
		got := sites(core, c.call)
		if len(got) != 1 || !strings.HasPrefix(got[0], c.file+":") {
			t.Errorf("internal/core has %d %s sites, want one, in %s: %q", len(got), c.call, c.file, got)
		}
	}
	for _, s := range sites(core, "lendShare(") {
		if !strings.Contains(s, ": func ") && !strings.Contains(s, "Wired()") {
			t.Errorf("%s: lendShare is called without Wired() on its line", s)
		}
	}
	// Exactly one line in the two lines above each postShares call, and
	// in the call's own, asks Wired().
	var wired int
	for path, lines := range files {
		seen := map[int]bool{}
		for i, line := range lines {
			if !core(path) || !strings.Contains(line, "f.postShares(") {
				continue
			}
			for j := max(i-2, 0); j <= i; j++ {
				if !seen[j] && strings.Contains(lines[j], "Wired()") {
					wired++
				}
				seen[j] = true
			}
		}
	}
	if wired != 1 {
		t.Errorf("%d lines ask Wired() at the f.postShares call sites; want the one guarding the one call", wired)
	}
}
