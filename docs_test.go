package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
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
// shares with their verbs and socket reader, atomic mode, the
// tiledmatrix and particles examples, the exports nothing but tests
// called (the random trees are datatypetest's now), Throttled's
// bandwidth model, and the Options and Config fields no product caller
// set: core's buffer sizes, pool and aggregator count, the frame,
// view-cache, write-batch, listen-address and deadline settings of the
// server, client and TCP endpoint, the rank links' wire chaos and the
// chaos conns' tracer, the launcher's and server pool's spare knobs,
// Resilient's per-op deadline, Chaos's permanent rates, btio's options
// and backend, and Table3's repeats; and the tier's scalar face: its
// staged scalar write op and the in-process striped backend (the direct
// scalar ops' names, opRead and opWrite, are also storage's op kinds).
// Each alternative ends in a bracket, so that this source does not match
// itself.
var deletedNames = regexp.MustCompile(`internal/sessio[n]|Options\.Gat[e]|ErrRejecte[d]|ClientOptions\{[^}]*Conn[s]|NewRegio[n]|PhaseSessio[n]|PhaseCach[e]|internal/ob[s]|obs\.Registr[y]|GaugeFun[c]|-metrics-(addr|fd|pus[h])|no-metric[s]|internal/tilei[o]|cmd/tilei[o]|cmd/bti[o]|btiomin[i]|blockcycli[c]|Darra[y]|WriteShare[d]|ReadShare[d]|WriteOrdere[d]|ReadOrdere[d]|IWriteA[t]|IReadA[t]|AtAllBegi[n]|Preallocat[e]|func \(p \*Proc\) Spli[t]|DisableProgra[m]|no-progra[m]|DisableViewCach[e]|DisableMergeChec[k]|BenchmarkAblatio[n]|BenchmarkFi[g]|directGathe[r]|directSen[d]|winBatc[h]|lentSeg[s]|chunkSeg[s]|viewSeg[s]|func \(p \*Proc\) Gathe[r]|\.Gather[(]|SendSeg[s]|postShare[s]|takePoste[d]|lendShar[e]|lendBuilde[r]|readPoste[d]|sockReade[r]|segCurso[r]|func \(p \*Proc\) Pos[t]|func \(p \*Proc\) Flus[h]|SetAtomicit[y]|Atomicit[y]\(\)|examples/tiledmatri[x]|examples/particle[s]|SpikeOnl[y]|AsCollectiveErro[r]|Type\) Dept[h]|\.ExactNBloc[k]|flatten\.NewVie[w]|RangeLis[t]|\.EachInDat[a]|IsPermanen[t]|ServerPool\) Restart[s]|Stats\) Tota[l]|RandomMemtyp[e]|datatype\.RandomFiletyp[e]|ReadB[W]|WriteB[W]|\*Program\) (Pack|Unpack)[(]|func UnpackCoun[t]|fotf\.UnpackCoun[t]|Type\) (LB|UB)[(]|IONode[s]|SieveBufSiz[e]|PackBufSiz[e]|CollBufSiz[e]|Options\.Poo[l]|cfg\.MaxFram[e]|opts\.MaxFram[e]|MaxFrame[:]|MaxFrame in[t]|Config\.ViewCach[e]|cfg\.ViewCach[e]|ViewCach[e]:|ViewCach[e] int|cfg\.WriteBu[f]|WriteBu[f](:| int)|ListenAdd[r]|TCPConfig\{[^}]*Deadlin[e]|cfg\.Deadlin[e]|TCPConfig\{[^}]*WireChao[s]|cfg\.WireChao[s]|RestartBackof[f]|KillServerId[x]|ServerStopTimeou[t]|opts\.Stdou[t]|opts\.Stder[r]|opts\.En[v]\b|ServerPoolOptions\{[^}]*\b(Exe|Args|Env)[:]|OpDeadlin[e]|PermanentRea[d]|PermanentWrit[e]|btio\.Config\{[^}]*\b(Options|Backend)[:]|cfg\.Option[s]\b|opts\.Args\(id[x]|cfg\.Repeat[s]|Repeats[:]|cc\.cfg\.Tracer[.]|PhaseWireChao[s]|opStageWrit[e]\b|"stage_writ[e]"|storage\.Stripe[d]\b|storage\.NewStripe[d]`)

// TestDeletedNamesStayDeleted: no Go, YAML or Markdown file names
// anything deleted (deletedNames).  Of the top-level Markdown files only
// README.md and DESIGN.md describe the current code; the others are
// history, planning and reference notes and, like benchmark/ and
// results/, record what was deleted, so they are not searched.
func TestDeletedNamesStayDeleted(t *testing.T) {
	// The alternation is slow over the whole tree (most of this package's
	// time under -race), so it runs only over a line holding some
	// alternative's literal prefix, without which that alternative cannot
	// match.
	var lits []string
	for _, alt := range topLevelAlternatives(deletedNames.String()) {
		lit, _ := regexp.MustCompile(alt).LiteralPrefix()
		if lit == "" {
			t.Fatalf("deletedNames alternative %q has no literal prefix", alt)
		}
		lits = append(lits, lit)
	}
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
		if !containsAny(string(src), lits) {
			return nil
		}
		for i, line := range strings.Split(string(src), "\n") {
			if !containsAny(line, lits) {
				continue
			}
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

// topLevelAlternatives splits a regular expression at the | outside any
// group or class.
func topLevelAlternatives(re string) []string {
	var alts []string
	depth, class, start := 0, false, 0
	for i := 0; i < len(re); i++ {
		switch c := re[i]; {
		case c == '\\':
			i++
		case class:
			class = c != ']'
		case c == '[':
			class = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == '|' && depth == 0:
			alts = append(alts, re[start:i])
			start = i + 1
		}
	}
	return append(alts, re[start:])
}

func containsAny(s string, subs []string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
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

// exportAllowed lists the exported functions and methods of internal/ and
// cmd/ that need no caller outside test files, each with its reason.
var exportAllowed = map[string]string{
	"fotf.Pack":                     "the paper's MPIR_ff_pack, the differential oracles' subject",
	"fotf.Unpack":                   "the paper's MPIR_ff_unpack, the differential oracles' subject",
	"fotf.TypeSize":                 "the paper's Type_ff_size, the differential oracles' subject",
	"fotf.TypeExtent":               "the paper's Type_ff_extent, the differential oracles' subject",
	"storage.NewFaulty":             "the test fault injector embeds the storage seam's unexported layer, which stays unexported (ROADMAP item 7)",
	"storage.Faulty.FailWrites":     "storage.NewFaulty's",
	"storage.Faulty.FailReads":      "storage.NewFaulty's",
	"storage.Faulty.FailWriteRange": "storage.NewFaulty's",
	"storage.Faulty.FailReadRange":  "storage.NewFaulty's",
	"storage.Faulty.Heal":           "storage.NewFaulty's",
	"pool.NewChecked":               "the pool's debug mode sets an unexported field of Pool, which a test package cannot",
}

// TestExportsHaveCallers: every exported function and method declared in
// a non-test file under internal/ or cmd/ is called from a non-test file
// (benchmark/ and cmd/ count as callers), implements a method of an
// interface, or is on exportAllowed — so that a product package carries
// no code only its tests run.  internal/testutil and the *test packages
// are exempt.  Calls are matched by name: a function by its package and
// name, a method by any selector of its name; an interface method is a
// method of an interface type declared under internal/ or cmd/, or of
// the standard library's that this code implements (stdIfaceMethods).
func TestExportsHaveCallers(t *testing.T) {
	stdIfaceMethods := map[string]bool{"String": true, "Error": true, "Unwrap": true, "Is": true,
		"Read": true, "Write": true, "Close": true, "Len": true, "Less": true, "Swap": true}
	type decl struct {
		key, name, at string
		method        bool
	}
	var decls []decl
	ifaceMethods := map[string]bool{}
	pkgFuncs := map[string]bool{} // "pkg.Name" used
	selectors := map[string]bool{}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "benchmark"} {
		err := filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				return err
			}
			dir := filepath.Base(filepath.Dir(file))
			exempt := root == "benchmark" || dir == "testutil" || strings.HasSuffix(dir, "test")
			pkg := f.Name.Name
			for _, dl := range f.Decls {
				fn, ok := dl.(*ast.FuncDecl)
				if !ok || exempt || !fn.Name.IsExported() {
					continue
				}
				at := fset.Position(fn.Pos()).String()
				if fn.Recv == nil {
					decls = append(decls, decl{pkg + "." + fn.Name.Name, fn.Name.Name, at, false})
					continue
				}
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if ix, ok := recv.(*ast.IndexExpr); ok {
					recv = ix.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					decls = append(decls, decl{pkg + "." + id.Name + "." + fn.Name.Name, fn.Name.Name, at, true})
				}
			}
			named := map[*ast.Ident]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, name := range m.Names {
							ifaceMethods[name.Name] = true
						}
					}
				case *ast.SelectorExpr:
					selectors[n.Sel.Name] = true
					if x, ok := n.X.(*ast.Ident); ok {
						pkgFuncs[x.Name+"."+n.Sel.Name] = true
					}
				case *ast.FuncDecl:
					// A declaration's own name is no call of it.
					named[n.Name] = true
				case *ast.Ident:
					if !named[n] {
						pkgFuncs[pkg+"."+n.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		called := !d.method && pkgFuncs[d.key] || d.method && selectors[d.name]
		implements := d.method && (ifaceMethods[d.name] || stdIfaceMethods[d.name])
		if _, ok := exportAllowed[d.key]; !called && !implements && !ok {
			t.Errorf("%s: %s has no caller outside test files; delete it, move it to a test package, or allow it in exportAllowed with a reason", d.at, d.key)
		}
	}
	for key := range exportAllowed {
		if !declared[key] {
			t.Errorf("exportAllowed names %s, which no non-test file under internal/ or cmd/ declares", key)
		}
	}
}

// TestWireProtocolStructure: the tier's ops are one table, a wire shape
// has one encoder and one decoder, a staged write is its direct twin's
// handler plus an epoch, the frame header has one parse and
// FrameConn.ReadHeader goes through it, and the tier's pooled frames are
// taken and put back only by the request reader, the client's request
// builder and stage log, and the server's staged epochs, beside the
// sieve's windows.
func TestWireProtocolStructure(t *testing.T) {
	funcs := func(dir string, tests bool) map[string]*ast.FuncDecl {
		out := map[string]*ast.FuncDecl{}
		fset := token.NewFileSet()
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if !tests && strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok {
					name := fn.Name.Name
					if fn.Recv != nil {
						recv := fn.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						name = recv.(*ast.Ident).Name + "." + name
					}
					out[name] = fn
				}
			}
		}
		return out
	}
	calls := func(fn *ast.FuncDecl, match func(*ast.CallExpr) bool) bool {
		found := false
		ast.Inspect(fn, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok && match(c) {
				found = true
			}
			return !found
		})
		return found
	}
	ioFuncs := funcs(filepath.Join("internal", "ioserver"), true)
	for name := range ioFuncs {
		if strings.HasPrefix(name, "connState.opStag"+"e") {
			t.Errorf("internal/ioserver declares %s: a staged write is its direct twin's handler plus an epoch", name)
		}
	}
	framers := map[string]bool{"newRequest": true, "Client.mutateLocked": true, "Client.dropStageLocked": true,
		"connState.readRequest": true, "Server.handleConn": true, "stagedEpoch.release": true}
	for name, fn := range funcs(filepath.Join("internal", "ioserver"), false) {
		if !framers[name] && calls(fn, func(c *ast.CallExpr) bool {
			sel, ok := c.Fun.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			id, ok := sel.X.(*ast.Ident)
			return ok && id.Name == "framePool" && (sel.Sel.Name == "Get" || sel.Sel.Name == "Put")
		}) {
			t.Errorf("internal/ioserver: %s takes or puts back a pooled frame", name)
		}
	}
	readHeader := funcs(filepath.Join("internal", "transport"), false)["FrameConn.ReadHeader"]
	if readHeader == nil || !calls(readHeader, func(c *ast.CallExpr) bool {
		id, ok := c.Fun.(*ast.Ident)
		return ok && id.Name == "parseFrameHeader"
	}) {
		t.Error("FrameConn.ReadHeader does not parse its header with parseFrameHeader")
	}
	for _, c := range []struct {
		root, skip, what string
		re               *regexp.Regexp
		want             int
		line             string // the one line matched, when want is 1 and it is set
	}{
		{"internal/ioserver", "", "bounds a run list", regexp.MustCompile(`> *MaxListRun[s]`), 1, ""},
		{"internal/transport", "", "bounds a frame", regexp.MustCompile(`> *uint32\([a-zA-Z.]*[mM]axFram[e]\)`), 1, ""},
		{"internal/ioserver", "internal/ioserver/sieve.go", "use the pool", regexp.MustCompile(`\bpool\.[A-Z]`), 1, "var framePool = pool.Global"},
		{"internal/ioserver", "internal/ioserver/protocol.go", "name an op outside the op table",
			regexp.MustCompile(`"(readv|writev|truncate|register|view_read|view_write|stage_writev|stage_view_write|epoch_seal|epoch_commit|epoch_abor[t])"`), 0, ""},
	} {
		var hits []string
		err := filepath.WalkDir(c.root, func(file string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") || filepath.ToSlash(file) == c.skip {
				return err
			}
			src, err := os.ReadFile(file)
			for i, line := range strings.Split(string(src), "\n") {
				if c.re.MatchString(line) {
					hits = append(hits, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(file), i+1, strings.TrimSpace(line)))
				}
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) != c.want || c.line != "" && !strings.HasSuffix(hits[0], ": "+c.line) {
			t.Errorf("%d lines under %s %s, want %d %s:\n%s", len(hits), c.root, c.what, c.want, c.line, strings.Join(hits, "\n"))
		}
	}
}

// TestDocIdentifiersResolve: every backticked pkg.Ident or
// pkg.Ident.Member in DESIGN.md, README.md and the verify skill's
// SKILL.md resolves as go doc -u would: a package under internal/ in this
// module, unexported members included, any other in the standard
// library.  Ident is a top-level declaration or a method of the package;
// Member a method or field of Ident.  Lowercase tokens such as
// storage.retry are span names and are skipped.
func TestDocIdentifiersResolve(t *testing.T) {
	span := regexp.MustCompile("`[^`\n]+`")
	ident := regexp.MustCompile(`(?:^|[^A-Za-z0-9_.])([a-z][a-z0-9_]*)\.([A-Z][A-Za-z0-9_]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?`)
	stdDirs := map[string]string{} // package name -> its shallowest directory under GOROOT/src
	goroot := filepath.Join(runtime.GOROOT(), "src")
	err := filepath.WalkDir(goroot, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if rel, _ := filepath.Rel(goroot, dir); strings.Count(rel, string(filepath.Separator)) > 1 {
			return filepath.SkipDir // as deep as encoding/binary is enough
		}
		switch d.Name() {
		case "internal", "vendor", "testdata", "cmd":
			return filepath.SkipDir
		}
		if old, ok := stdDirs[d.Name()]; !ok || len(dir) < len(old) {
			stdDirs[d.Name()] = dir
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// decls[dir] maps a top-level name, and Type.Member for a method or
	// field, to true; a method also counts under its own name.
	decls := map[string]map[string]bool{}
	resolves := func(dir, name, member string) bool {
		if decls[dir] == nil {
			names := map[string]bool{}
			pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, pkg := range pkgs {
				for _, f := range pkg.Files {
					for _, d := range f.Decls {
						switch d := d.(type) {
						case *ast.FuncDecl:
							names[d.Name.Name] = true
							if d.Recv != nil {
								recv := d.Recv.List[0].Type
								for {
									switch r := recv.(type) {
									case *ast.StarExpr:
										recv = r.X
										continue
									case *ast.IndexExpr:
										recv = r.X
										continue
									}
									break
								}
								if id, ok := recv.(*ast.Ident); ok {
									names[id.Name+"."+d.Name.Name] = true
								}
							}
						case *ast.GenDecl:
							for _, s := range d.Specs {
								switch s := s.(type) {
								case *ast.ValueSpec:
									for _, n := range s.Names {
										names[n.Name] = true
									}
								case *ast.TypeSpec:
									names[s.Name.Name] = true
									var fields *ast.FieldList
									switch ty := s.Type.(type) {
									case *ast.StructType:
										fields = ty.Fields
									case *ast.InterfaceType:
										fields = ty.Methods
									}
									if fields != nil {
										for _, fl := range fields.List {
											for _, n := range fl.Names {
												names[s.Name.Name+"."+n.Name] = true
											}
										}
									}
								}
							}
						}
					}
				}
			}
			decls[dir] = names
		}
		if member != "" {
			name += "." + member
		}
		return decls[dir][name]
	}
	for _, doc := range []string{"DESIGN.md", "README.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range span.FindAllString(string(src), -1) {
			for _, m := range ident.FindAllStringSubmatch(strings.Trim(s, "`"), -1) {
				dir := filepath.Join("internal", m[1])
				if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
					dir = stdDirs[m[1]]
				}
				if dir == "" || !resolves(dir, m[2], m[3]) {
					t.Errorf("%s names %s, which does not resolve", doc, strings.TrimLeft(m[0], "`(, "))
				}
			}
		}
	}
}

// configAllowed lists the exported fields of the Options and Config
// structs of internal/ and cmd/ that no non-test file sets, each with the
// test outside the declaring package that needs it.
var configAllowed = map[string]string{
	"transport.TCPConfig.Pool":               "core's TCP worlds (world_test.go, linkPool) check frame ownership on a checked pool",
	"transport.WireChaosConfig.SpikeMin":     "ioserver's TestWireChaosSoak and TestSendPathReads shorten the latency spikes",
	"transport.WireChaosConfig.SpikeMax":     "ioserver's TestWireChaosSoak and TestSendPathReads shorten the latency spikes",
	"transport.WireChaosConfig.PartitionFor": "ioserver's TestWireChaosSoak lengthens the partitions",
	"transport.WireChaosConfig.Stats":        "ioserver's TestWireChaosSoak fails unless a destructive fault was injected",
}

// TestConfigFieldsHaveSetters: every exported field of an exported struct
// whose name ends in Options or Config, declared in a non-test file under
// internal/ or cmd/, is set by a product caller, or is on configAllowed,
// so that no configuration exists only for its defaults or its tests.  A
// field is set when a keyed composite literal of its type names it in a
// non-test file (a same-package preset counts), or when a non-test file
// outside the declaring package assigns it on a variable declared with
// that type; benchmark/ and cmd/ count, the *test packages do not.
// Fields are matched by (package, type, field), not by name alone.
func TestConfigFieldsHaveSetters(t *testing.T) {
	type file struct {
		f   *ast.File
		dir string
	}
	var files []file
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			if dir := filepath.Dir(path); filepath.Base(dir) != "testutil" && !strings.HasSuffix(dir, "test") {
				f, err := parser.ParseFile(fset, path, nil, 0)
				files = append(files, file{f, filepath.ToSlash(dir)})
				return err
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// A type is "dir.Name"; a field "dir.Name.Field".  fieldAt and
	// fieldKey give each declared field's position and its printed name.
	fieldAt, fieldKey := map[string]string{}, map[string]string{}
	for _, fl := range files {
		if strings.HasPrefix(fl.dir, "benchmark") {
			continue
		}
		for _, d := range fl.f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, s := range gd.Specs {
				ts := s.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				name := ts.Name.Name
				if !ok || !ts.Name.IsExported() || !strings.HasSuffix(name, "Options") && !strings.HasSuffix(name, "Config") {
					continue
				}
				for _, f := range st.Fields.List {
					for _, n := range f.Names {
						if n.IsExported() {
							key := fl.dir + "." + name + "." + n.Name
							fieldAt[key] = fset.Position(n.Pos()).String()
							fieldKey[key] = fl.f.Name.Name + "." + name + "." + n.Name
						}
					}
				}
			}
		}
	}
	set := map[string]bool{}
	for _, fl := range files {
		imports := map[string]string{} // local name -> directory
		for _, im := range fl.f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			p = strings.TrimPrefix(p, "repro/")
			name := path.Base(p)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		// typeOf resolves a type expression to "dir.Name", through a
		// pointer.
		typeOf := func(e ast.Expr) string {
			if star, ok := e.(*ast.StarExpr); ok {
				e = star.X
			}
			switch e := e.(type) {
			case *ast.Ident:
				return fl.dir + "." + e.Name
			case *ast.SelectorExpr:
				if x, ok := e.X.(*ast.Ident); ok && imports[x.Name] != "" {
					return imports[x.Name] + "." + e.Sel.Name
				}
			}
			return ""
		}
		// implied holds the element type of a composite literal whose
		// type is elided inside a slice, array or map literal.
		implied := map[*ast.CompositeLit]string{}
		vars := map[string]string{} // variable name -> its type, per file
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				ty := implied[n]
				if n.Type != nil {
					ty = typeOf(n.Type)
				}
				var elt ast.Expr
				switch lt := n.Type.(type) {
				case *ast.ArrayType:
					elt = lt.Elt
				case *ast.MapType:
					elt = lt.Value
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok && ty != "" {
							set[ty+"."+k.Name] = true
						}
						e = kv.Value
					}
					if u, ok := e.(*ast.UnaryExpr); ok {
						e = u.X
					}
					if lit, ok := e.(*ast.CompositeLit); ok && lit.Type == nil && elt != nil {
						implied[lit] = typeOf(elt)
					}
				}
			case *ast.Field:
				for _, name := range n.Names {
					vars[name.Name] = typeOf(n.Type)
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if n.Type != nil {
						vars[name.Name] = typeOf(n.Type)
					} else if i < len(n.Values) {
						vars[name.Name] = litType(n.Values[i], typeOf)
					}
				}
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
					for i, l := range n.Lhs {
						if id, ok := l.(*ast.Ident); ok {
							vars[id.Name] = litType(n.Rhs[i], typeOf)
						}
					}
				}
				for _, l := range n.Lhs {
					sel, ok := l.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					if x, ok := sel.X.(*ast.Ident); ok {
						if ty := vars[x.Name]; ty != "" && !strings.HasPrefix(ty, fl.dir+".") {
							set[ty+"."+sel.Sel.Name] = true
						}
					}
				}
			}
			return true
		})
	}
	keys := make([]string, 0, len(fieldAt))
	for key := range fieldAt {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	t.Logf("%d exported fields of Options and Config structs, %d on configAllowed", len(keys), len(configAllowed))
	allowed := map[string]bool{}
	for _, key := range keys {
		allowed[fieldKey[key]] = true
		if _, ok := configAllowed[fieldKey[key]]; !set[key] && !ok {
			t.Errorf("%s: %s is set by no product caller; make it the constant it always is, an unexported test seam, or allow it in configAllowed with the test that needs it", fieldAt[key], fieldKey[key])
		}
	}
	for key := range configAllowed {
		if !allowed[key] {
			t.Errorf("configAllowed names %s, which is no exported field of an Options or Config struct under internal/ or cmd/", key)
		}
	}
}

// litType is the type of a composite literal, or of its address, as
// typeOf resolves it; "" for any other expression.
func litType(e ast.Expr, typeOf func(ast.Expr) string) string {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	if lit, ok := e.(*ast.CompositeLit); ok && lit.Type != nil {
		return typeOf(lit.Type)
	}
	return ""
}
