// Package linttest is a self-contained analysistest substitute: it
// runs one analyzer over a testdata package and checks the reported
// diagnostics against `// want` comments, using the same conventions
// as golang.org/x/tools/go/analysis/analysistest:
//
//	x := bad() // want `regexp matching the diagnostic`
//
// Multiple expectations on one line are multiple quoted regexps. The
// harness type-checks testdata with the source importer, so testdata
// packages may import the standard library — and, for the
// cross-package fact analyzers, sibling packages under the same
// testdata/src root: an import path that exists as a sibling
// directory is loaded from source, analyzed first (exporting its
// facts into an in-memory store), and its own // want comments are
// checked too. Facts are gob round-tripped at export, so a fact type
// that would not survive the real unitchecker wire format fails here
// first.
//
// (The real analysistest depends on go/packages and is not part of
// the vendored x/tools subset this repository builds against.)
package linttest

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// Run loads the package in testdata/src/<pkg> (and any sibling
// packages it imports), applies the analyzer to each in dependency
// order, and reports any mismatch between diagnostics and // want
// comments as test errors.
func Run(t *testing.T, a *analysis.Analyzer, pkg string) {
	t.Helper()
	Analyze(t, a, pkg)
}

// Analyze is Run returning the diagnostics and the FileSet, for tests
// that assert beyond messages (SuggestedFix edits, positions).
func Analyze(t *testing.T, a *analysis.Analyzer, pkg string) ([]analysis.Diagnostic, *token.FileSet) {
	t.Helper()
	h := newHarness(t, a, filepath.Join("testdata", "src"))
	h.load(pkg)
	checkExpectations(t, h.fset, h.allFiles(), h.diags)
	return h.diags, h.fset
}

// harness owns the shared FileSet, the loaded-package memo, and the
// in-memory fact store one Run call accumulates across packages.
type harness struct {
	t      *testing.T
	a      *analysis.Analyzer
	fset   *token.FileSet
	root   string // testdata/src root for sibling imports
	std    types.Importer
	loaded map[string]*loadedPkg
	order  []string // load completion order, for allFiles determinism
	diags  []analysis.Diagnostic

	objFacts map[objFactKey]analysis.Fact
	pkgFacts map[pkgFactKey]analysis.Fact
}

type loadedPkg struct {
	tpkg  *types.Package
	files []*ast.File
}

type objFactKey struct {
	obj types.Object
	typ reflect.Type
}

type pkgFactKey struct {
	pkg *types.Package
	typ reflect.Type
}

func newHarness(t *testing.T, a *analysis.Analyzer, root string) *harness {
	if len(a.Requires) > 0 {
		t.Fatalf("linttest: analyzer %s has Requires; this harness runs dependency-free analyzers only", a.Name)
	}
	fset := token.NewFileSet()
	return &harness{
		t:        t,
		a:        a,
		fset:     fset,
		root:     root,
		std:      importer.ForCompiler(fset, "source", nil),
		loaded:   map[string]*loadedPkg{},
		objFacts: map[objFactKey]analysis.Fact{},
		pkgFacts: map[pkgFactKey]analysis.Fact{},
	}
}

// Import resolves an import path during type checking: paths that
// exist as directories under the testdata/src root load (and analyze)
// the sibling fixture package; everything else falls through to the
// standard-library source importer.
func (h *harness) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(h.root, path); dirExists(dir) {
		return h.load(path).tpkg, nil
	}
	return h.std.Import(path)
}

func dirExists(dir string) bool {
	fi, err := os.Stat(dir)
	return err == nil && fi.IsDir()
}

// load parses, type-checks, and analyzes the fixture package at
// <root>/<path>, memoized per path. Sibling imports are pulled in by
// the type checker through h.Import, so a dependency's analyzer run
// (and its exported facts) always completes before the importing
// package's run starts.
func (h *harness) load(path string) *loadedPkg {
	if lp, ok := h.loaded[path]; ok {
		return lp
	}
	return h.loadDir(path, filepath.Join(h.root, path))
}

func (h *harness) loadDir(path, dir string) *loadedPkg {
	t := h.t
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(h.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("linttest: parse: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("linttest: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: h}
	tpkg, err := conf.Check(path, h.fset, files, info)
	if err != nil {
		t.Fatalf("linttest: typecheck %s: %v", dir, err)
	}
	lp := &loadedPkg{tpkg: tpkg, files: files}
	h.loaded[path] = lp
	h.order = append(h.order, path)

	pass := &analysis.Pass{
		Analyzer:          h.a,
		Fset:              h.fset,
		Files:             files,
		Pkg:               tpkg,
		TypesInfo:         info,
		TypesSizes:        types.SizesFor("gc", "amd64"),
		ResultOf:          map[*analysis.Analyzer]interface{}{},
		Report:            func(d analysis.Diagnostic) { h.diags = append(h.diags, d) },
		ImportObjectFact:  h.importObjectFact,
		ExportObjectFact:  h.exportObjectFact,
		ImportPackageFact: h.importPackageFact,
		ExportPackageFact: func(fact analysis.Fact) { h.exportPackageFact(tpkg, fact) },
		AllObjectFacts:    h.allObjectFacts,
		AllPackageFacts:   h.allPackageFacts,
	}
	if _, err := h.a.Run(pass); err != nil {
		t.Fatalf("linttest: %s failed on %s: %v", h.a.Name, path, err)
	}
	return lp
}

func (h *harness) allFiles() []*ast.File {
	var files []*ast.File
	for _, path := range h.order {
		files = append(files, h.loaded[path].files...)
	}
	return files
}

// roundTrip gob-encodes the fact and decodes it into a fresh value of
// the same concrete type, mirroring the unitchecker wire format so a
// fact that would not serialize fails in the fixture suite.
func (h *harness) roundTrip(fact analysis.Fact) analysis.Fact {
	h.t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(fact); err != nil {
		h.t.Fatalf("linttest: fact %T does not gob-encode: %v", fact, err)
	}
	fresh := reflect.New(reflect.TypeOf(fact).Elem()).Interface().(analysis.Fact)
	if err := gob.NewDecoder(&buf).Decode(fresh); err != nil {
		h.t.Fatalf("linttest: fact %T does not gob-decode: %v", fact, err)
	}
	return fresh
}

func (h *harness) exportObjectFact(obj types.Object, fact analysis.Fact) {
	h.t.Helper()
	if obj == nil {
		h.t.Fatalf("linttest: ExportObjectFact(nil, %T)", fact)
	}
	h.objFacts[objFactKey{obj, reflect.TypeOf(fact)}] = h.roundTrip(fact)
}

func (h *harness) importObjectFact(obj types.Object, fact analysis.Fact) bool {
	stored, ok := h.objFacts[objFactKey{obj, reflect.TypeOf(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

func (h *harness) exportPackageFact(pkg *types.Package, fact analysis.Fact) {
	h.t.Helper()
	h.pkgFacts[pkgFactKey{pkg, reflect.TypeOf(fact)}] = h.roundTrip(fact)
}

func (h *harness) importPackageFact(pkg *types.Package, fact analysis.Fact) bool {
	stored, ok := h.pkgFacts[pkgFactKey{pkg, reflect.TypeOf(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

func (h *harness) allObjectFacts() []analysis.ObjectFact {
	var out []analysis.ObjectFact
	for k, f := range h.objFacts {
		out = append(out, analysis.ObjectFact{Object: k.obj, Fact: f})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Object.Pos() < out[j].Object.Pos() })
	return out
}

func (h *harness) allPackageFacts() []analysis.PackageFact {
	var out []analysis.PackageFact
	for k, f := range h.pkgFacts {
		out = append(out, analysis.PackageFact{Package: k.pkg, Fact: f})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Package.Path() < out[j].Package.Path() })
	return out
}

// wantRE extracts the quoted or backquoted expectation patterns from a
// // want comment.
var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func checkExpectations(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	want := map[key][]*regexp.Regexp{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				idx := strings.Index(text, "// want ")
				if idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRE.FindAllString(text[idx+len("// want "):], -1) {
					pat := m
					if pat[0] == '"' {
						unq, err := strconv.Unquote(pat)
						if err != nil {
							t.Fatalf("linttest: bad want pattern %s at %s: %v", pat, pos, err)
						}
						pat = unq
					} else {
						pat = pat[1 : len(pat)-1]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("linttest: bad want regexp %s at %s: %v", pat, pos, err)
					}
					k := key{pos.Filename, pos.Line}
					want[k] = append(want[k], re)
				}
			}
		}
	}

	got := map[key][]string{}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		got[k] = append(got[k], d.Message)
	}

	var keys []key
	seen := map[key]bool{}
	for k := range want {
		if !seen[k] {
			keys = append(keys, k)
			seen[k] = true
		}
	}
	for k := range got {
		if !seen[k] {
			keys = append(keys, k)
			seen[k] = true
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})

	for _, k := range keys {
		ws, gs := want[k], got[k]
		unmatched := append([]string(nil), gs...)
		for _, re := range ws {
			hit := -1
			for i, msg := range unmatched {
				if re.MatchString(msg) {
					hit = i
					break
				}
			}
			if hit < 0 {
				t.Errorf("%s:%d: no diagnostic matching %q (got %s)", k.file, k.line, re, fmtMsgs(gs))
				continue
			}
			unmatched = append(unmatched[:hit], unmatched[hit+1:]...)
		}
		for _, msg := range unmatched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", k.file, k.line, msg)
		}
	}
}

func fmtMsgs(msgs []string) string {
	if len(msgs) == 0 {
		return "none"
	}
	return fmt.Sprintf("%q", msgs)
}
