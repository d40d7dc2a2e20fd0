// Package funnel implements the schedlint analyzer enforcing the
// state-funnel contract: a struct field marked `//lint:funnel` (a
// task's State, a job's done counts) may be written only inside the
// functions of its own package whose doc comment carries the same
// marker. Those functions are the one transition path that keeps
// derived state in step — the per-job pending, running and done task
// counts — so a write anywhere else makes that state drift silently.
//
// A write is an assignment (plain or compound), an increment or
// decrement, or taking the field's address. Composite literals are
// construction, not writes: a job assembled from laid-out tasks counts
// their states (job.Assemble). Test files are exempt, and a function
// may opt out with a scoped `//lint:allow funnel`.
//
// The marker is exported as a fact on the field, so writes from client
// packages (the engine, the schedulers) are flagged too; a funnel
// function may write only the funnel fields of its own package.
package funnel

import (
	"go/ast"
	"go/token"
	"go/types"

	"mapsched/internal/lint/analysis"
	"mapsched/internal/lint/directive"
	"mapsched/internal/lint/scope"
)

// Name is the analyzer name recognized by //lint:allow directives.
const Name = "funnel"

// funnelFact marks a struct field as funnel-written for importing
// packages.
type funnelFact struct{}

func (*funnelFact) AFact()         {}
func (*funnelFact) String() string { return "funnel" }

// Analyzer is the funnel pass.
var Analyzer = &analysis.Analyzer{
	Name:      Name,
	Doc:       "forbid writes to //lint:funnel fields outside the //lint:funnel functions of the field's package",
	Run:       run,
	FactTypes: []analysis.Fact{new(funnelFact)},
}

type checker struct {
	pass   *analysis.Pass
	fields map[*types.Var]bool // this package's funnel fields
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !scope.PackageInScope(pass.Pkg.Path()) {
		return nil, nil
	}
	c := &checker{pass: pass, fields: map[*types.Var]bool{}}
	c.collect()
	for _, f := range pass.Files {
		if scope.IsTestFile(pass, f) || directive.HeaderAllows(f, Name) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil && !directive.DeclAllows(fd.Doc, Name) {
				c.checkFunc(fd)
			}
		}
	}
	return nil, nil
}

// collect gathers the marked fields of this package's struct types and
// exports a fact on each.
func (c *checker) collect() {
	for _, f := range c.pass.Files {
		if scope.IsTestFile(c.pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					if !directive.IsFunnel(field.Doc, field.Comment) {
						continue
					}
					for _, name := range field.Names {
						if v, ok := c.pass.TypesInfo.Defs[name].(*types.Var); ok {
							c.fields[v] = true
							c.pass.ExportObjectFact(v, &funnelFact{})
						}
					}
				}
			}
		}
	}
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	funnel := directive.IsFunnel(fd.Doc)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				c.checkTarget(lhs, funnel)
			}
		case *ast.IncDecStmt:
			c.checkTarget(n.X, funnel)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				c.checkTarget(n.X, funnel)
			}
		}
		return true
	})
}

// checkTarget reports a write whose target, once index, pointer and
// paren layers are peeled, is a funnel field — unless the writing
// function is a funnel of the field's own package.
func (c *checker) checkTarget(e ast.Expr, funnel bool) {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
			continue
		case *ast.StarExpr:
			e = x.X
			continue
		case *ast.ParenExpr:
			e = x.X
			continue
		}
		break
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return
	}
	s := c.pass.TypesInfo.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !c.isFunnel(v) {
		return
	}
	if funnel && v.Pkg() == c.pass.Pkg {
		return
	}
	c.pass.Reportf(sel.Sel.Pos(),
		"write to //lint:funnel field %q of %s outside its funnel; go through the //lint:funnel methods so the state derived from it stays in step",
		v.Name(), recvName(s.Recv()))
}

// isFunnel reports whether the field is marked, here or (through the
// exported fact) in the package declaring it.
func (c *checker) isFunnel(v *types.Var) bool {
	if c.fields[v] {
		return true
	}
	return v.Pkg() != nil && v.Pkg() != c.pass.Pkg && c.pass.ImportObjectFact(v, new(funnelFact))
}

// recvName names the struct type a field is selected from, through
// one pointer.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}
