package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
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
// fileview-cache and mergeview ablations, the root testing.B suite, the
// IOP's direct-window path, mpi's Gather, the lent and posted wire
// shares with their verbs and socket reader, atomic mode, and the
// tiledmatrix and particles examples.
// Each alternative ends in a bracket, so that this source does not match
// itself.
var deletedNames = regexp.MustCompile(`internal/sessio[n]|Options\.Gat[e]|ErrRejecte[d]|ClientOptions\{[^}]*Conn[s]|NewRegio[n]|PhaseSessio[n]|PhaseCach[e]|internal/ob[s]|obs\.Registr[y]|GaugeFun[c]|-metrics-(addr|fd|pus[h])|no-metric[s]|internal/tilei[o]|cmd/tilei[o]|cmd/bti[o]|btiomin[i]|blockcycli[c]|Darra[y]|WriteShare[d]|ReadShare[d]|WriteOrdere[d]|ReadOrdere[d]|IWriteA[t]|IReadA[t]|AtAllBegi[n]|Preallocat[e]|func \(p \*Proc\) Spli[t]|DisableProgra[m]|no-progra[m]|DisableViewCach[e]|DisableMergeChec[k]|BenchmarkAblatio[n]|BenchmarkFi[g]|directGathe[r]|directSen[d]|winBatc[h]|lentSeg[s]|chunkSeg[s]|viewSeg[s]|func \(p \*Proc\) Gathe[r]|\.Gather[(]|SendSeg[s]|postShare[s]|takePoste[d]|lendShar[e]|lendBuilde[r]|readPoste[d]|sockReade[r]|segCurso[r]|func \(p \*Proc\) Pos[t]|func \(p \*Proc\) Flus[h]|SetAtomicit[y]|Atomicit[y]\(\)|examples/tiledmatri[x]|examples/particle[s]`)

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
// from the AP's loan (SendRef), and over a wire a share travels as a
// packed chunk, so nothing under internal/ delivers or takes lent slices
// as a message.  Lines are matched as text, comments included.
func TestTypedLoanSites(t *testing.T) {
	segMessage := regexp.MustCompile(`RecvSeg[s]|Segs +\[\]\[\]byt[e]|\.Segs != ni[l]`)
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for i, line := range strings.Split(string(src), "\n") {
			if m := segMessage.FindString(line); m != "" {
				t.Errorf("%s:%d: %q delivers or takes lent slices as a message", filepath.ToSlash(path), i+1, m)
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDocPathsExist: every backticked repository path in DESIGN.md,
// README.md and the verify skill's SKILL.md exists, so that a document
// cannot name a file a change deleted.  A backticked span is split at
// white space and a leading "./" dropped from each word; a word under
// internal/, cmd/ or benchmark/ must exist as written, a pkg/file.go is
// looked up under internal/, and a bare file.go anywhere under internal/,
// cmd/ or benchmark/.  Other words are not paths and are skipped.
func TestDocPathsExist(t *testing.T) {
	bare := map[string]bool{} // base names of the files under internal/, cmd/ and benchmark/
	for _, root := range []string{"internal", "cmd", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil {
				bare[d.Name()] = true
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	span := regexp.MustCompile("`[^`]+`")
	pkgFile := regexp.MustCompile(`^[a-z0-9_]+/[A-Za-z0-9_]+\.go$`)
	bareFile := regexp.MustCompile(`^[A-Za-z0-9_]+\.go$`)
	for _, doc := range []string{"DESIGN.md", "README.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		src, err := os.ReadFile(doc)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, s := range span.FindAllString(line, -1) {
				for _, p := range strings.Fields(strings.Trim(s, "`")) {
					p = strings.TrimPrefix(p, "./")
					var ok bool
					switch {
					case strings.HasPrefix(p, "internal/") || strings.HasPrefix(p, "cmd/") || strings.HasPrefix(p, "benchmark/"):
						ok = exists(p)
					case pkgFile.MatchString(p):
						ok = exists(filepath.Join("internal", p))
					case bareFile.MatchString(p):
						ok = bare[p]
					default:
						continue
					}
					if !ok {
						t.Errorf("%s:%d names %s, which does not exist", doc, i+1, p)
					}
				}
			}
		}
	}
}

// TestNoncontigFlagsRegistered: every -flag a command line in ci.yml, the
// top-level docs or the verify skill's SKILL.md passes to noncontig is
// one newFlags registers (every flag is registered through def or
// refuse, which TestEveryFlagHasALaunchClass holds), so that a deleted
// flag a document still passes fails here and not only in CI, where
// noncontig exits on it.  A command is a line, continued by a trailing
// backslash; a backticked span is a command of its own.  Its program is
// go run's ./cmd/noncontig, or a command that starts with a binary
// named noncontig or noncontig-net, in any directory; its flags are the
// words after the program up to the next ;, &&, ||, |, > or #.
func TestNoncontigFlagsRegistered(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filepath.Join("cmd", "noncontig", "flags.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, d := range file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == "newFlags" {
			ast.Inspect(fn, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				lit, isLit := call.Args[0].(*ast.BasicLit)
				if ok && isLit && (sel.Sel.Name == "def" || sel.Sel.Name == "refuse") {
					name, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					registered[name] = true
				}
				return true
			})
		}
	}
	if len(registered) == 0 {
		t.Fatal("found no flag registered in newFlags")
	}
	separator := map[string]bool{";": true, "&&": true, "||": true, "|": true, ">": true, "$": true, "run:": true, "do": true, "then": true}
	flagWord := regexp.MustCompile(`^--?([a-z][a-z0-9-]*)`)
	for _, doc := range []string{filepath.Join(".github", "workflows", "ci.yml"), "README.md", "DESIGN.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(src), "\n")
		for i := 0; i < len(lines); i++ {
			at, line := i+1, lines[i]
			for strings.HasSuffix(strings.TrimSpace(line), "\\") && i+1 < len(lines) {
				i++
				line = strings.TrimSuffix(strings.TrimSpace(line), "\\") + " " + lines[i]
			}
			words := strings.Fields(strings.ReplaceAll(line, "`", " ; "))
			start, inCmd := true, false
			for j, w := range words {
				base := path.Base(w)
				switch {
				case separator[w] || strings.HasPrefix(w, "#"):
					start, inCmd = true, false
					continue
				case start && (base == "noncontig" || base == "noncontig-net"),
					strings.TrimPrefix(w, "./") == "cmd/noncontig" && j > 0 && words[j-1] == "run":
					inCmd = true
				case inCmd:
					if m := flagWord.FindStringSubmatch(w); m != nil && !registered[m[1]] {
						t.Errorf("%s:%d passes -%s to noncontig, which newFlags does not register", doc, at, m[1])
					}
				}
				start = false
			}
		}
	}
}

// TestStorageSeam: a pass-through storage wrapper is its state and one
// intercept; the forwarding of every Backend, Vectored, ViewBackend and
// EpochBackend method lives once, in seam.go's layer, so no wrapper
// declares one of those methods itself.
func TestStorageSeam(t *testing.T) {
	forwarder := regexp.MustCompile(`^func \([a-z]+ \*(Resilient|Traced|Throttled|Instrumented|Faulty|Chaos)\) (ReadAt|WriteAt|ReadAtv|WriteAtv|SendTo|Truncate|Sync|RegisterView|ViewRead|ViewWrite|Epoch[A-Z][a-z]+|Supports[A-Z][a-z]+)\(`)
	grepGo(t, "internal/storage", forwarder, "a storage wrapper forwards a method itself")
}

// TestMeasureOnce: a timed site in the collective window loop and
// exchange is one span whose End returns the duration, so neither file
// reads the clock itself; and the tracer keeps one aggregate per phase,
// with no metrics registry beside it.
func TestMeasureOnce(t *testing.T) {
	clock := regexp.MustCompile(`time\.(Now|Since)\(`)
	grepGo(t, "internal/core/collective_window.go", clock, "reads the clock outside a span")
	grepGo(t, "internal/core/collective_exchange.go", clock, "reads the clock outside a span")
	grepGo(t, "internal/trace", regexp.MustCompile(`type Metrics |func NewMetrics`), "declares a metrics registry")
}

// grepGo reports every line of the Go files at root (a file, or a
// directory walked recursively, test files included) that re matches.
func grepGo(t *testing.T, root string, re *regexp.Regexp, what string) {
	t.Helper()
	err := filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(file, ".go") {
			return err
		}
		src, err := os.ReadFile(file)
		for i, line := range strings.Split(string(src), "\n") {
			if m := re.FindString(line); m != "" {
				t.Errorf("%s:%d: %q: %s", filepath.ToSlash(file), i+1, m, what)
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
