// Package optflag implements the schedlint analyzer guarding the
// set-flag convention of functional options.
//
// The public API distinguishes "explicit zero value" from "not
// specified" by pairing option fields with boolean set flags
// (journal / journalSet and friends in the root package's options
// struct). PR 2 fixed a bug class where an option given an explicit
// zero silently behaved like "unset" because the option closure wrote
// the value but not the flag; this analyzer makes that regression
// impossible: inside any option-shaped function (a func with exactly
// one parameter of a struct type that declares <field>/<field>Set
// pairs, and no results), a write to <field> must be accompanied by a
// write to <field>Set on the same receiver variable.
package optflag

import (
	"go/ast"
	"go/types"

	"mapsched/internal/lint/analysis"
	"mapsched/internal/lint/directive"
	"mapsched/internal/lint/scope"
)

// Name is the analyzer name recognized by //lint:allow directives.
const Name = "optflag"

// Analyzer is the optflag pass.
var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc:  "require functional options that write a set-flag-guarded field to also write its set flag",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !scope.PackageInScope(pass.Pkg.Path()) {
		return nil, nil
	}

	pairs := collectPairs(pass)
	if len(pairs) == 0 {
		return nil, nil
	}

	for _, f := range pass.Files {
		if scope.IsTestFile(pass, f) || directive.FileAllows(f, Name) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var ftype *ast.FuncType
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				ftype, body = n.Type, n.Body
			case *ast.FuncLit:
				ftype, body = n.Type, n.Body
			default:
				return true
			}
			if body == nil || !optionShaped(pass, ftype, pairs) {
				return true
			}
			checkOptionBody(pass, body, pairs)
			return true
		})
	}
	return nil, nil
}

// collectPairs maps each guarded option field to its boolean set flag:
// struct fields foo and fooSet (bool) declared side by side.
func collectPairs(pass *analysis.Pass) map[*types.Var]*types.Var {
	pairs := map[*types.Var]*types.Var{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			fields := map[string]*types.Var{}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						fields[name.Name] = v
					}
				}
			}
			for name, v := range fields {
				flag, ok := fields[name+"Set"]
				if !ok {
					continue
				}
				if b, ok := flag.Type().Underlying().(*types.Basic); ok && b.Kind() == types.Bool {
					pairs[v] = flag
				}
			}
			return true
		})
	}
	return pairs
}

// optionShaped reports whether the function type is a functional
// option over a struct with guarded pairs: exactly one parameter whose
// (possibly pointed-to) struct declares at least one guarded field,
// and no results.
func optionShaped(pass *analysis.Pass, ftype *ast.FuncType, pairs map[*types.Var]*types.Var) bool {
	if ftype.Results != nil && len(ftype.Results.List) > 0 {
		return false
	}
	if ftype.Params == nil || len(ftype.Params.List) != 1 || len(ftype.Params.List[0].Names) > 1 {
		return false
	}
	t := pass.TypesInfo.TypeOf(ftype.Params.List[0].Type)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if _, guarded := pairs[st.Field(i)]; guarded {
			return true
		}
	}
	return false
}

// fieldWrite is one assignment to a struct field inside an option body.
type fieldWrite struct {
	at    ast.Node
	recv  types.Object // the variable being written through
	field *types.Var
}

func checkOptionBody(pass *analysis.Pass, body *ast.BlockStmt, pairs map[*types.Var]*types.Var) {
	var writes []fieldWrite
	note := func(lhs ast.Expr, at ast.Node) {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok {
			return
		}
		base, ok := sel.X.(*ast.Ident)
		if !ok {
			return
		}
		v, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Var)
		if !ok {
			return
		}
		writes = append(writes, fieldWrite{at: at, recv: pass.TypesInfo.ObjectOf(base), field: v})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				note(lhs, n)
			}
		case *ast.IncDecStmt:
			note(n.X, n)
		}
		return true
	})

	for _, w := range writes {
		flag, guarded := pairs[w.field]
		if !guarded {
			continue
		}
		ok := false
		for _, other := range writes {
			if other.field == flag && other.recv == w.recv {
				ok = true
				break
			}
		}
		if !ok {
			pass.Reportf(w.at.Pos(),
				"option sets %q but not its set flag %q; an explicit zero value will be indistinguishable from \"not specified\" (the WithCrossTraffic(0) bug class)",
				w.field.Name(), flag.Name())
		}
	}
}
