// Package linttest runs one analyzer over a testdata package and
// checks the reported diagnostics against `// want` comments, with the
// conventions of x/tools' analysistest:
//
//	x := bad() // want `regexp matching the diagnostic`
//
// Multiple expectations on one line are multiple quoted regexps. The
// harness type-checks testdata with the source importer, so testdata
// packages may import the standard library — and, for the
// cross-package fact analyzers, sibling packages under the same
// testdata/src root: an import path that exists as a sibling
// directory is loaded from source and analyzed first, and its own
// // want comments are checked too. The packages run through the same
// pass runner and fact store as cmd/schedlint, and the store goes
// through its wire encoding after each package, so a fact that would
// not survive `go vet` fails here first.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mapsched/internal/lint/analysis"
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
	fset := token.NewFileSet()
	h := &harness{
		t:      t,
		a:      a,
		fset:   fset,
		root:   filepath.Join("testdata", "src"),
		std:    importer.ForCompiler(fset, "source", nil),
		loaded: map[string]*loadedPkg{},
		facts:  analysis.NewFacts(a),
	}
	h.load(pkg)
	checkExpectations(t, h.fset, h.allFiles(), h.diags)
	return h.diags, h.fset
}

// harness owns the shared FileSet, the loaded-package memo, and the
// fact store one Run call accumulates across packages.
type harness struct {
	t      *testing.T
	a      *analysis.Analyzer
	fset   *token.FileSet
	root   string // testdata/src root for sibling imports
	std    types.Importer
	loaded map[string]*loadedPkg
	order  []string // load completion order, for allFiles determinism
	diags  []analysis.Diagnostic
	facts  *analysis.Facts
}

type loadedPkg struct {
	tpkg  *types.Package
	files []*ast.File
}

// Import resolves an import path during type checking: paths that
// exist as directories under the testdata/src root load (and analyze)
// the sibling fixture package; everything else falls through to the
// standard-library source importer.
func (h *harness) Import(path string) (*types.Package, error) {
	if fi, err := os.Stat(filepath.Join(h.root, path)); err == nil && fi.IsDir() {
		return h.load(path).tpkg, nil
	}
	return h.std.Import(path)
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
	t := h.t
	t.Helper()
	dir := filepath.Join(h.root, path)
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

	tpkg, results, err := analysis.Check(&types.Config{Importer: h}, h.fset, path, files, []*analysis.Analyzer{h.a}, h.facts)
	if err != nil {
		t.Fatalf("linttest: typecheck %s: %v", dir, err)
	}
	if err := results[0].Err; err != nil {
		t.Fatalf("linttest: %s failed on %s: %v", h.a.Name, path, err)
	}
	h.diags = append(h.diags, results[0].Diagnostics...)
	data, err := h.facts.Encode()
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	// Reset in place: the importing package's Check, already running,
	// holds this store and must read the decoded facts.
	*h.facts = analysis.Facts{}
	if err := h.facts.Read(data); err != nil {
		t.Fatalf("linttest: %v", err)
	}

	lp := &loadedPkg{tpkg: tpkg, files: files}
	h.loaded[path] = lp
	h.order = append(h.order, path)
	return lp
}

func (h *harness) allFiles() []*ast.File {
	var files []*ast.File
	for _, path := range h.order {
		files = append(files, h.loaded[path].files...)
	}
	return files
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
