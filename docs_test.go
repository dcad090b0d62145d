package repro

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
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
// scalar ops' names, opRead and opWrite, are also storage's op kinds); and
// what no product run reached: the engines' data-in-range count, noncontig's
// RunOver, File's Engine and Proc, Type's Name and Summary, Indexed and
// EncodedSize, Kind's String, Tracer's Rank, TCP's wireProgress, Proc's WireStats,
// Program's Size and Extent, Server's LastCommitted, Mem's Bytes and
// Instrumented's Reset; and the tier's second cut of a view: the run
// walk, its owned-segment gatherer, the navigability test and fotf's
// Monotone with Type's TrueExtent, which only it called, and Program's
// RunCount (folded into the cursor's).
// Each alternative ends in a bracket, so that this source does not match
// itself.
var deletedNames = regexp.MustCompile(`internal/sessio[n]|Options\.Gat[e]|ErrRejecte[d]|ClientOptions\{[^}]*Conn[s]|NewRegio[n]|PhaseSessio[n]|PhaseCach[e]|internal/ob[s]|obs\.Registr[y]|GaugeFun[c]|-metrics-(addr|fd|pus[h])|no-metric[s]|internal/tilei[o]|cmd/tilei[o]|cmd/bti[o]|btiomin[i]|blockcycli[c]|Darra[y]|WriteShare[d]|ReadShare[d]|WriteOrdere[d]|ReadOrdere[d]|IWriteA[t]|IReadA[t]|AtAllBegi[n]|Preallocat[e]|func \(p \*Proc\) Spli[t]|DisableProgra[m]|no-progra[m]|DisableViewCach[e]|DisableMergeChec[k]|BenchmarkAblatio[n]|BenchmarkFi[g]|directGathe[r]|directSen[d]|winBatc[h]|lentSeg[s]|chunkSeg[s]|viewSeg[s]|func \(p \*Proc\) Gathe[r]|\.Gather[(]|SendSeg[s]|postShare[s]|takePoste[d]|lendShar[e]|lendBuilde[r]|readPoste[d]|sockReade[r]|segCurso[r]|func \(p \*Proc\) Pos[t]|func \(p \*Proc\) Flus[h]|SetAtomicit[y]|Atomicit[y]\(\)|examples/tiledmatri[x]|examples/particle[s]|SpikeOnl[y]|AsCollectiveErro[r]|Type\) Dept[h]|\.ExactNBloc[k]|flatten\.NewVie[w]|RangeLis[t]|\.EachInDat[a]|IsPermanen[t]|ServerPool\) Restart[s]|Stats\) Tota[l]|RandomMemtyp[e]|datatype\.RandomFiletyp[e]|ReadB[W]|WriteB[W]|\*Program\) (Pack|Unpack)[(]|func UnpackCoun[t]|fotf\.UnpackCoun[t]|Type\) (LB|UB)[(]|IONode[s]|SieveBufSiz[e]|PackBufSiz[e]|CollBufSiz[e]|Options\.Poo[l]|cfg\.MaxFram[e]|opts\.MaxFram[e]|MaxFrame[:]|MaxFrame in[t]|Config\.ViewCach[e]|cfg\.ViewCach[e]|ViewCach[e]:|ViewCach[e] int|cfg\.WriteBu[f]|WriteBu[f](:| int)|ListenAdd[r]|TCPConfig\{[^}]*Deadlin[e]|cfg\.Deadlin[e]|TCPConfig\{[^}]*WireChao[s]|cfg\.WireChao[s]|RestartBackof[f]|KillServerId[x]|ServerStopTimeou[t]|opts\.Stdou[t]|opts\.Stder[r]|opts\.En[v]\b|ServerPoolOptions\{[^}]*\b(Exe|Args|Env)[:]|OpDeadlin[e]|PermanentRea[d]|PermanentWrit[e]|btio\.Config\{[^}]*\b(Options|Backend)[:]|cfg\.Option[s]\b|opts\.Args\(id[x]|cfg\.Repeat[s]|Repeats[:]|cc\.cfg\.Tracer[.]|PhaseWireChao[s]|opStageWrit[e]\b|"stage_writ[e]"|storage\.Stripe[d]\b|storage\.NewStripe[d]|func \(f \*File\) (Engine|Proc)[(]|dataInRang[e]|func RunOver\(cfg Confi[g]|noncontig\.RunOve[r]|func \(t \*Type\) (Name|Summary)[(]|func Indexed[(]|datatype\.Indexed[(]|func EncodedSiz[e]|datatype\.EncodedSiz[e]|func \(t \*Tracer\) Ran[k]|wireProgress\(\) int64 \{ return t[.]|func \(p \*Proc\) WireStat[s]|func \(p \*Program\) (Size|Extent)[(]|LastCommitted[(]|func \(m \*Mem\) Byte[s]|func \(in \*Instrumented\) Rese[t]|func \(k Kind\) Strin[g]|transferVie[w]|storage\.Vectore[d]\b|storage\.Trace[d]\b|NewTrace[d]|func walkVie[w]|ownedSeg[s]|fotf\.Monoton[e]|func navigabl[e]|func \(p \*Program\) RunCoun[t][(]|func \(t \*Type\) TrueExten[t]`)

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
// intercept; the forwarding of every Backend, Sender, ViewBackend and
// EpochBackend method lives once, in seam.go's layer, so no wrapper
// declares one of those methods itself.
func TestStorageSeam(t *testing.T) {
	forwarder := regexp.MustCompile(`^func \([a-z]+ \*(Resilient|Throttled|Instrumented|Faulty|Chaos)\) (ReadAt|WriteAt|ReadAtv|WriteAtv|SendTo|Truncate|Sync|RegisterView|ViewRead|ViewWrite|Epoch[A-Z][a-z]+|Supports[A-Z][a-z]+)\(`)
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
	"storage.NewFaulty":             "the test fault injector embeds the storage seam's unexported layer, which stays unexported (ROADMAP item 7)",
	"storage.Faulty.FailWrites":     "storage.NewFaulty's",
	"storage.Faulty.FailReads":      "storage.NewFaulty's",
	"storage.Faulty.FailWriteRange": "storage.NewFaulty's",
	"storage.Faulty.FailReadRange":  "storage.NewFaulty's",
	"storage.Faulty.Heal":           "storage.NewFaulty's",
	"pool.NewChecked":               "the pool's debug mode sets an unexported field of Pool, which a test package cannot",
}

// stdCalls declares the interfaces whose methods the standard library
// calls on values this code hands it: fmt's, flag.Var's and errors'.
const stdCalls = `package stdcalls

import ("flag"; "fmt")

type (
	stringer  = fmt.Stringer
	errorer   = error
	value     = flag.Value
	unwrapper interface{ Unwrap() error }
)
`

// srcPkg is one package of the tree, type-checked from its non-test files
// (go/build picks them, build constraints included).  product is false
// for benchmark/, internal/testutil and the *test helper packages.
type srcPkg struct {
	dir     string // slash-separated, relative to the repository root
	pkg     *types.Package
	files   []*ast.File
	info    *types.Info
	product bool
}

// srcTree is every package under internal/, cmd/ and benchmark/, checked
// from source, and the importer of the standard library's source.
type srcTree struct {
	fset *token.FileSet
	pkgs []*srcPkg
	std  types.Importer
}

// checkTree loads the tree once per test binary for the guards that read
// the code's types: the standard library comes from its source, a repro/
// import from the tree itself.
var checkTree = sync.OnceValues(func() (*srcTree, error) {
	tree := &srcTree{fset: token.NewFileSet()}
	tree.std = importer.ForCompiler(tree.fset, "source", nil)
	byDir := map[string]*srcPkg{}
	var load func(dir string) (*srcPkg, error)
	conf := types.Config{Importer: importerFunc(func(p string) (*types.Package, error) {
		if dir, ok := strings.CutPrefix(p, "repro/"); ok {
			sp, err := load(dir)
			if err != nil {
				return nil, err
			}
			return sp.pkg, nil
		}
		return tree.std.Import(p)
	})}
	load = func(dir string) (*srcPkg, error) {
		if sp, ok := byDir[dir]; ok {
			return sp, nil
		}
		bp, err := build.ImportDir(filepath.FromSlash(dir), 0)
		if err != nil {
			return nil, err
		}
		sp := &srcPkg{dir: dir, info: &types.Info{Uses: map[*ast.Ident]types.Object{}},
			product: !strings.HasPrefix(dir, "benchmark") && path.Base(dir) != "testutil" && !strings.HasSuffix(dir, "test")}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(tree.fset, filepath.Join(bp.Dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			sp.files = append(sp.files, f)
		}
		if sp.pkg, err = conf.Check("repro/"+dir, tree.fset, sp.files, sp.info); err != nil {
			return nil, err
		}
		byDir[dir] = sp
		tree.pkgs = append(tree.pkgs, sp)
		return sp, nil
	}
	for _, root := range []string{"internal", "cmd", "benchmark"} {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := build.ImportDir(dir, 0); err != nil {
				var none *build.NoGoError
				if errors.As(err, &none) {
					return nil
				}
				return err
			}
			_, err = load(filepath.ToSlash(dir))
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return tree, nil
})

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// loadTree is checkTree for a test, which fails if the tree does not check.
func loadTree(t *testing.T) *srcTree {
	t.Helper()
	tree, err := checkTree()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// callers reports whether a package's uses count for the guards: a
// product package's or the benchmark's, not a test helper package's.
func (sp *srcPkg) callers() bool { return sp.product || strings.HasPrefix(sp.dir, "benchmark") }

// TestExportsHaveCallers: every exported function and method declared in
// a non-test file under internal/ or cmd/, and every method of an
// interface declared there, exported or not, is used from a non-test file
// (benchmark/ and cmd/ count, internal/testutil and the *test packages do
// not), or is on exportAllowed — so that a product package carries no
// code only its tests run.  A use is an identifier go/types resolves to
// the function.  A method is also used when its type implements a used
// method of an interface (the standard library's, and the interface
// literal of a type assertion, included), or one of stdCalls.
func TestExportsHaveCallers(t *testing.T) {
	tree := loadTree(t)
	used := map[*types.Func]bool{}
	ifaces := map[*types.Interface][]*types.Func{} // used interface methods
	f, err := parser.ParseFile(tree.fset, "stdcalls.go", stdCalls, 0)
	if err != nil {
		t.Fatal(err)
	}
	calls, err := (&types.Config{Importer: tree.std}).Check("stdcalls", tree.fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range calls.Scope().Names() {
		iface := calls.Scope().Lookup(name).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			ifaces[iface] = append(ifaces[iface], iface.Method(i))
		}
	}
	for _, sp := range tree.pkgs {
		if !sp.callers() {
			continue
		}
		for _, obj := range sp.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || used[fn.Origin()] {
				continue
			}
			used[fn.Origin()] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					ifaces[iface] = append(ifaces[iface], fn)
				}
			}
		}
	}
	type decl struct {
		key string
		fn  *types.Func
	}
	var decls []decl
	for _, sp := range tree.pkgs {
		if !sp.product {
			continue
		}
		scope := sp.pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					decls = append(decls, decl{sp.pkg.Name() + "." + name, obj})
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				prefix := sp.pkg.Name() + "." + name + "."
				if iface, ok := named.Underlying().(*types.Interface); ok {
					for i := 0; i < iface.NumExplicitMethods(); i++ {
						decls = append(decls, decl{prefix + iface.ExplicitMethod(i).Name(), iface.ExplicitMethod(i)})
					}
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						decls = append(decls, decl{prefix + m.Name(), m})
					}
				}
				for iface, ms := range ifaces {
					for _, ty := range []types.Type{named, types.NewPointer(named)} {
						if !types.Implements(ty, iface) {
							continue
						}
						for _, im := range ms {
							if m, _, _ := types.LookupFieldOrMethod(ty, false, im.Pkg(), im.Name()); m != nil {
								used[m.(*types.Func)] = true
							}
						}
						break
					}
				}
			}
		}
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		if _, ok := exportAllowed[d.key]; !used[d.fn] && !ok {
			t.Errorf("%s: %s has no use outside test files; delete it, move it to a test package, or allow it in exportAllowed with a reason", tree.fset.Position(d.fn.Pos()), d.key)
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
// field is set when the key of a composite literal in a non-test file
// resolves to it (a same-package preset counts), or when a non-test file
// outside the declaring package assigns to a selector that resolves to
// it; benchmark/ and cmd/ count, the *test packages do not.  Fields are
// resolved by go/types, so a field of the same name on another type is
// another field.
func TestConfigFieldsHaveSetters(t *testing.T) {
	tree := loadTree(t)
	fields := map[*types.Var]string{} // field -> pkg.Type.Field
	for _, sp := range tree.pkgs {
		if !sp.product {
			continue
		}
		scope := sp.pkg.Scope()
		for _, name := range scope.Names() {
			obj, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !obj.Exported() || !strings.HasSuffix(name, "Options") && !strings.HasSuffix(name, "Config") {
				continue
			}
			if st, ok := obj.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !f.Embedded() {
						fields[f] = sp.pkg.Name() + "." + name + "." + f.Name()
					}
				}
			}
		}
	}
	set := map[*types.Var]bool{}
	for _, sp := range tree.pkgs {
		if !sp.callers() {
			continue
		}
		field := func(id *ast.Ident) *types.Var {
			if v, ok := sp.info.Uses[id].(*types.Var); ok && v.IsField() {
				return v
			}
			return nil
		}
		for _, f := range sp.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok && field(id) != nil {
						set[field(id)] = true
					}
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						if sel, ok := l.(*ast.SelectorExpr); ok {
							if v := field(sel.Sel); v != nil && v.Pkg() != sp.pkg {
								set[v] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	keys := make([]*types.Var, 0, len(fields))
	for f := range fields {
		keys = append(keys, f)
	}
	sort.Slice(keys, func(i, j int) bool { return fields[keys[i]] < fields[keys[j]] })
	t.Logf("%d exported fields of Options and Config structs, %d on configAllowed", len(keys), len(configAllowed))
	allowed := map[string]bool{}
	for _, f := range keys {
		allowed[fields[f]] = true
		if _, ok := configAllowed[fields[f]]; !set[f] && !ok {
			t.Errorf("%s: %s is set by no product caller; make it the constant it always is, an unexported test seam, or allow it in configAllowed with the test that needs it", tree.fset.Position(f.Pos()), fields[f])
		}
	}
	for key := range configAllowed {
		if !allowed[key] {
			t.Errorf("configAllowed names %s, which is no exported field of an Options or Config struct under internal/ or cmd/", key)
		}
	}
}
