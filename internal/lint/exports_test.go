package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported functions that only tests call but
// that stay exported, each because a test in another package calls it and
// an export_test.go file cannot serve another package.
var testOnlyAllowed = map[string]string{
	"ValidateModel": "core: the analysis tests check probability models against the model contract",
	"ExpectedInput": "job: the engine tests compare a reduce's shuffled bytes against its expected input",
	"Int63":         "sim: the engine tests draw raw seeds from the simulation RNG",
	"Uniform":       "sim: the topology and core tests draw capacities and sizes from the simulation RNG",
	"ActiveFlows":   "topology: the engine's whole-run tests check that only cross-traffic flows outlive a run",
	"CheckFeasible": "topology: the engine's whole-run fuzzer checks that no link ends oversubscribed",
	"MapRows":       "core: the placement tests count the map-cost rows a Decider's sweep leaves behind",
	"Laned":         "sim: the engine tests check that every heartbeat rides the FIFO lane",
}

// TestNoTestOnlyExports keeps code only tests use out of the production
// tree: every exported function, and exported method of an exported type,
// declared in non-test Go under internal/ must be referenced by name in
// the module's non-test Go other than by its own declaration. Methods of
// unexported types are reachable only through interfaces (sort.Interface,
// analysis.Fact), so they are skipped. The match is textual: a name
// collision can hide a finding but never invent one.
func TestNoTestOnlyExports(t *testing.T) {
	internal := filepath.Join(moduleRoot, "internal") + string(filepath.Separator)
	var decls []*ast.Ident
	refs := map[string]int{}
	fset := walkModule(t, func(path string, f *ast.File) {
		own := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() && exportedRecv(fd) {
				own[fd.Name] = true
				if strings.HasPrefix(path, internal) {
					decls = append(decls, fd.Name)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				refs[id.Name]++
			}
			return true
		})
	})
	if len(decls) == 0 {
		t.Fatal("found no exported functions under internal/; is the module root wrong?")
	}
	for _, id := range decls {
		if _, ok := testOnlyAllowed[id.Name]; !ok && refs[id.Name] == 0 {
			t.Errorf("%s: %s is exported but no non-test code references it; move it into a _test.go file or delete it",
				fset.Position(id.Pos()), id.Name)
		}
	}
}

// moduleRoot is the module root relative to this package's directory.
var moduleRoot = filepath.Join("..", "..")

// walkModule parses every non-test Go file of the module outside
// testdata, third_party and hidden directories and hands each to fn with
// its path. It returns the file set positions resolve against.
func walkModule(t *testing.T, fn func(path string, f *ast.File)) *token.FileSet {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(moduleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if name := d.Name(); d.IsDir() && path != moduleRoot && (name == "testdata" || name == "third_party" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset
}

// exportedRecv reports whether fd is a plain function or a method of an
// exported type.
func exportedRecv(fd *ast.FuncDecl) bool {
	if fd.Recv == nil {
		return true
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	id, ok := typ.(*ast.Ident)
	return ok && id.IsExported()
}
