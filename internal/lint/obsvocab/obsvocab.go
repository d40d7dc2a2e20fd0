// Package obsvocab implements the schedlint analyzer that keeps the
// observability event vocabulary closed.
//
// The golden-JSONL determinism tests and every downstream consumer of
// the event stream (summary sinks, chrome-trace export, experiment
// audits) key on obs.Type values. The vocabulary is the set of
// constants declared in internal/obs; a raw string literal used where
// such a "vocabulary type" is expected either silently invents a new
// event kind (schema drift the goldens cannot catch until much later)
// or shadows an existing constant by value. Both must be written as
// the registered constant.
//
// The rule is generic: a vocabulary type is any defined string type
// whose declaring package also declares constants of that type. String
// literals with such a final type are reported everywhere except in
// the constant declarations themselves.
package obsvocab

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"mapsched/internal/lint/analysis"
	"mapsched/internal/lint/directive"
	"mapsched/internal/lint/scope"
)

// Name is the analyzer name recognized by //lint:allow directives.
const Name = "obsvocab"

// Analyzer is the obsvocab pass.
var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc:  "require registered event-type constants (not raw string literals) wherever a closed vocabulary type is expected",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !scope.PackageInScope(pass.Pkg.Path()) {
		return nil, nil
	}
	vocabCache := map[*types.TypeName][]*types.Const{}
	for _, f := range pass.Files {
		if scope.IsTestFile(pass, f) || directive.FileAllows(f, Name) {
			continue
		}
		checkFile(pass, f, vocabCache)
	}
	return nil, nil
}

func checkFile(pass *analysis.Pass, f *ast.File, cache map[*types.TypeName][]*types.Const) {
	// Constant declarations define the vocabulary; their literals are the
	// one place raw strings belong.
	var constRanges [][2]token.Pos
	for _, decl := range f.Decls {
		if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.CONST {
			constRanges = append(constRanges, [2]token.Pos{gd.Pos(), gd.End()})
		}
	}
	inConst := func(p token.Pos) bool {
		for _, r := range constRanges {
			if p >= r[0] && p < r[1] {
				return true
			}
		}
		return false
	}

	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING || inConst(lit.Pos()) {
			return true
		}
		tv, ok := pass.TypesInfo.Types[lit]
		if !ok || tv.Type == nil {
			return true
		}
		tn, consts := vocabType(tv.Type, cache)
		if tn == nil {
			return true
		}
		if c := matching(consts, tv.Value); c != nil {
			pass.Reportf(lit.Pos(), "string literal %s used as %s; use the registered constant %s",
				lit.Value, typeString(tn), constName(pass, c))
		} else {
			pass.Reportf(lit.Pos(), "string literal %s is not a registered %s constant; declare it in %s or use an existing constant",
				lit.Value, typeString(tn), declSite(tn))
		}
		return true
	})
}

// vocabType reports whether t is a closed vocabulary type: a defined
// string type whose declaring package also declares constants of it.
// It returns the type name and those constants.
func vocabType(t types.Type, cache map[*types.TypeName][]*types.Const) (*types.TypeName, []*types.Const) {
	named, ok := t.(*types.Named)
	if !ok {
		return nil, nil
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsString == 0 {
		return nil, nil
	}
	tn := named.Obj()
	if tn.Pkg() == nil {
		return nil, nil
	}
	if consts, ok := cache[tn]; ok {
		return vocabResult(tn, consts)
	}
	var consts []*types.Const
	sc := tn.Pkg().Scope()
	for _, name := range sc.Names() {
		if c, ok := sc.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), named) {
			consts = append(consts, c)
		}
	}
	cache[tn] = consts
	return vocabResult(tn, consts)
}

func vocabResult(tn *types.TypeName, consts []*types.Const) (*types.TypeName, []*types.Const) {
	if len(consts) == 0 {
		return nil, nil // a plain string type, not a vocabulary
	}
	return tn, consts
}

func matching(consts []*types.Const, v constant.Value) *types.Const {
	if v == nil {
		return nil
	}
	for _, c := range consts {
		if constant.Compare(c.Val(), token.EQL, v) {
			return c
		}
	}
	return nil
}

func constName(pass *analysis.Pass, c *types.Const) string {
	if c.Pkg() != nil && c.Pkg() != pass.Pkg {
		return fmt.Sprintf("%s.%s", c.Pkg().Name(), c.Name())
	}
	return c.Name()
}

func typeString(tn *types.TypeName) string {
	if tn.Pkg() != nil {
		return fmt.Sprintf("%s.%s", tn.Pkg().Name(), tn.Name())
	}
	return tn.Name()
}

func declSite(tn *types.TypeName) string {
	if tn.Pkg() != nil {
		return tn.Pkg().Path()
	}
	return "its declaring package"
}
