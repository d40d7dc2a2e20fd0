// Package epochbump implements the schedlint analyzer enforcing the
// cost-cache invalidation contract: every function that mutates
// epoch-guarded state must bump an epoch counter.
//
// The incremental cost caches (core.CostModel's block rows and
// core.ReduceCoster) are only sound because the quantities they derive
// are constant between equal epochs: FlowNet bumps its epoch on every
// rate recomputation, and
// hdfs.Store bumps its epoch on every replica-set mutation. A mutation
// path that forgets the bump silently serves stale costs — the exact
// bug class this analyzer removes.
//
// Fields covered by the contract carry a `//lint:epoch-guarded` marker
// comment on their declaration (link.capacity in internal/topology,
// Block.Replicas in internal/hdfs). The analyzer
// then checks, per function and transitively through calls to other
// functions of the same package, that any write to a guarded field
// reaches an increment or assignment of a field named "epoch".
package epochbump

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"mapsched/internal/lint/directive"
	"mapsched/internal/lint/scope"
)

// Name is the analyzer name recognized by //lint:allow directives.
const Name = "epochbump"

// Analyzer is the epochbump pass.
var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc:  "require functions mutating //lint:epoch-guarded fields to bump an epoch counter (directly or via an intra-package callee)",
	Run:  run,
}

// funcInfo accumulates per-function facts for the fixed-point pass.
type funcInfo struct {
	decl    *ast.FuncDecl
	writes  []guardedWrite // writes to guarded fields
	bumps   bool           // writes an epoch field directly
	callees []*types.Func  // same-package functions it calls
}

type guardedWrite struct {
	pos   ast.Node
	field *types.Var
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !scope.PackageInScope(pass.Pkg.Path()) {
		return nil, nil
	}

	guarded, epochs := collectFields(pass)
	if len(guarded) == 0 {
		return nil, nil
	}

	infos := map[*types.Func]*funcInfo{}
	var order []*types.Func
	for _, f := range pass.Files {
		if scope.IsTestFile(pass, f) || directive.FileAllows(f, Name) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			infos[fn] = analyzeFunc(pass, fd, guarded, epochs)
			order = append(order, fn)
		}
	}

	// Propagate "bumps an epoch" backwards over the intra-package call
	// graph to a fixed point: a function bumps if it writes an epoch
	// field itself or calls any function that (transitively) does.
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			info := infos[fn]
			if info.bumps {
				continue
			}
			for _, callee := range info.callees {
				if ci, ok := infos[callee]; ok && ci.bumps {
					info.bumps = true
					changed = true
					break
				}
			}
		}
	}

	for _, fn := range order {
		info := infos[fn]
		if info.bumps {
			continue
		}
		for _, w := range info.writes {
			pass.Reportf(w.pos.Pos(),
				"%s writes epoch-guarded field %q without bumping an epoch (directly or via a callee in this package); caches keyed on the epoch will serve stale values",
				fn.Name(), w.field.Name())
		}
	}
	return nil, nil
}

// collectFields gathers the //lint:epoch-guarded field objects and all
// fields named "epoch" declared in this package.
func collectFields(pass *analysis.Pass) (guarded, epochs map[*types.Var]bool) {
	guarded = map[*types.Var]bool{}
	epochs = map[*types.Var]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mark := directive.IsEpochGuarded(field)
				for _, name := range field.Names {
					v, ok := pass.TypesInfo.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					if mark {
						guarded[v] = true
					}
					if name.Name == "epoch" {
						epochs[v] = true
					}
				}
			}
			return true
		})
	}
	return guarded, epochs
}

// analyzeFunc records the guarded-field writes, direct epoch bumps, and
// same-package callees of one function declaration (including any
// function literals it contains, which execute on its behalf).
func analyzeFunc(pass *analysis.Pass, fd *ast.FuncDecl, guarded, epochs map[*types.Var]bool) *funcInfo {
	info := &funcInfo{decl: fd}
	note := func(lhs ast.Expr, at ast.Node) {
		// Peel index/deref/paren layers so element writes through a
		// guarded field (s.caps[i] = c) are seen too.
		for {
			switch e := lhs.(type) {
			case *ast.IndexExpr:
				lhs = e.X
				continue
			case *ast.StarExpr:
				lhs = e.X
				continue
			case *ast.ParenExpr:
				lhs = e.X
				continue
			}
			break
		}
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok {
			return
		}
		v, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Var)
		if !ok {
			return
		}
		if guarded[v] {
			info.writes = append(info.writes, guardedWrite{pos: at, field: v})
		}
		if epochs[v] {
			info.bumps = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				note(lhs, n)
			}
		case *ast.IncDecStmt:
			note(n.X, n)
		case *ast.CallExpr:
			var id *ast.Ident
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				id = fun
			case *ast.SelectorExpr:
				id = fun.Sel
			}
			if id == nil {
				return true
			}
			if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok && fn.Pkg() == pass.Pkg {
				info.callees = append(info.callees, fn)
			}
		}
		return true
	})
	return info
}
