// Package poolreset implements the schedlint analyzer enforcing the
// free-list hygiene contract: every pooled object is fully reset before
// it is put back on a free list.
//
// The simulator pools its hot-path records (topology.Flow, the engine's
// attempt/bucket/flight records) to keep steady-state allocation near
// zero. Pooling is only sound when a release clears every field of the
// record: a recycled object carrying a stale event
// handle, callback, or half-cleared map silently corrupts a later,
// unrelated life — the nastiest bug class this codebase has, because
// the symptom appears far from the cause and only under reuse.
//
// Two directives drive the analyzer:
//
//	//lint:pooled <Type>
//
// as a standalone comment inside a function body marks that function as
// the release site for struct type <Type>. The analyzer then requires
// the function to reset every field of the type: a direct field
// assignment (x.f = 0, x.f = x.f[:0]), a whole-struct assignment
// (*x = Type{...}, which covers all fields at once), or an in-place map
// clear via delete(x.f, k) all count.
//
//	//lint:pooled-keep
//
// on a struct field declaration exempts the field: it deliberately
// persists across lives (bound-once callbacks, reusable map storage).
// The exemption is declaration-site on purpose — the field's comment is
// where the persistence contract is documented.
//
// The analyzer also closes the forgot-the-marker hole: any append to a
// free list (an identifier or field whose name is "free" or starts with
// "free", holding a slice of pointers) in a function without a
// //lint:pooled marker is reported, so a new release path cannot skip
// the contract by simply not declaring itself.
package poolreset

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mapsched/internal/lint/analysis"
	"mapsched/internal/lint/directive"
	"mapsched/internal/lint/scope"
)

// Name is the analyzer name recognized by //lint:allow directives.
const Name = "poolreset"

// Analyzer is the poolreset pass.
var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc:  "require //lint:pooled release functions to reset every field of the pooled type before the free-list put",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !scope.PackageInScope(pass.Pkg.Path()) {
		return nil, nil
	}
	keep := collectKeepFields(pass)
	for _, f := range pass.Files {
		if scope.IsTestFile(pass, f) || directive.FileAllows(f, Name) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			markers := bodyMarkers(f, fd)
			for _, m := range markers {
				checkReset(pass, fd, m, keep)
			}
			if len(markers) == 0 {
				flagUnmarkedPuts(pass, fd)
			}
		}
	}
	return nil, nil
}

// marker is one //lint:pooled directive found inside a function body.
type marker struct {
	pos      token.Pos
	typeName string
}

// bodyMarkers returns the //lint:pooled markers positioned inside the
// function's body. Comments are not attached to statements in the AST,
// so they are matched by source range.
func bodyMarkers(f *ast.File, fd *ast.FuncDecl) []marker {
	var out []marker
	for _, cg := range f.Comments {
		if cg.Pos() < fd.Body.Pos() || cg.End() > fd.Body.End() {
			continue
		}
		for _, c := range cg.List {
			if name := directive.ParsePooled(c.Text); name != "" {
				out = append(out, marker{pos: c.Pos(), typeName: name})
			}
		}
	}
	return out
}

// collectKeepFields gathers the field objects carrying //lint:pooled-keep.
func collectKeepFields(pass *analysis.Pass) map[*types.Var]bool {
	keep := map[*types.Var]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !directive.IsPooledKeep(field) {
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						keep[v] = true
					}
				}
			}
			return true
		})
	}
	return keep
}

// checkReset verifies that the function resets every non-exempt field of
// the marker's type somewhere in its body.
func checkReset(pass *analysis.Pass, fd *ast.FuncDecl, m marker, keep map[*types.Var]bool) {
	obj, _ := pass.Pkg.Scope().Lookup(m.typeName).(*types.TypeName)
	if obj == nil {
		pass.Reportf(m.pos, "//lint:pooled names %q, which is not a type in this package", m.typeName)
		return
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		pass.Reportf(m.pos, "//lint:pooled names %q, which is not a struct type", m.typeName)
		return
	}
	want := map[*types.Var]bool{}
	var order []*types.Var
	for i := 0; i < st.NumFields(); i++ {
		fv := st.Field(i)
		if keep[fv] {
			continue
		}
		want[fv] = true
		order = append(order, fv)
	}

	covered := map[*types.Var]bool{}
	wholeStruct := false
	noteField := func(expr ast.Expr) {
		sel, ok := expr.(*ast.SelectorExpr)
		if !ok {
			return
		}
		if v, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Var); ok && want[v] {
			covered[v] = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				// *x = Type{...} (or any whole-value store) resets every
				// field in one statement.
				if tv, ok := pass.TypesInfo.Types[lhs]; ok && types.Identical(tv.Type, obj.Type()) {
					wholeStruct = true
					continue
				}
				noteField(lhs)
			}
		case *ast.CallExpr:
			// delete(x.f, k) clears a persistent map field in place; the
			// release loops count as the reset of that field.
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" && len(n.Args) == 2 {
				noteField(n.Args[0])
			}
		}
		return true
	})
	if wholeStruct {
		return
	}
	var missing []string
	for _, fv := range order {
		if !covered[fv] {
			missing = append(missing, fv.Name())
		}
	}
	if len(missing) > 0 {
		pass.Reportf(m.pos,
			"pooled %s release does not reset field(s) %s; a recycled object would carry state from its previous life (reset them, or mark deliberately persistent fields //lint:pooled-keep)",
			m.typeName, strings.Join(missing, ", "))
	}
}

// flagUnmarkedPuts reports free-list appends in functions that carry no
// //lint:pooled marker: a release path must declare itself so the reset
// check applies to it.
func flagUnmarkedPuts(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "append" || len(call.Args) < 2 {
			return true
		}
		dst := call.Args[0]
		if !isFreeListName(dst) || !isPtrSlice(pass, dst) {
			return true
		}
		pass.Reportf(call.Pos(),
			"append to free list %s in a function without a //lint:pooled reset marker; declare the release site so the full-reset check applies",
			exprName(dst))
		return true
	})
}

// isFreeListName matches the naming convention for pool free lists: an
// identifier or selector whose terminal name is "free" or "free"-prefixed.
func isFreeListName(expr ast.Expr) bool {
	name := exprName(expr)
	return name == "free" || strings.HasPrefix(name, "free")
}

func exprName(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// isPtrSlice reports whether the expression is a slice of pointers — the
// shape of every object free list — so unrelated "free*" slices of plain
// values (e.g. free slot counts) do not trip the naming heuristic.
func isPtrSlice(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok {
		return false
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	_, isPtr := sl.Elem().Underlying().(*types.Pointer)
	return isPtr
}
