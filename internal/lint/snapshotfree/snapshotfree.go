// Package snapshotfree implements the schedlint analyzer enforcing
// the published-snapshot immutability contract (DESIGN.md §15): types
// annotated `//lint:immutable-after-publish` (topology.NodeSet,
// core.Avail, the placement View) are handed to concurrent readers by
// pointer or by shallow copy, so once published they must never be
// written again — a reader-side field or element write races every
// other reader.
//
// Writes into a value of a marked type are admitted only in:
//
//   - the type's constructors — functions declared in the type's own
//     package with the type (or a pointer to it) among their results;
//   - republish sites annotated `//lint:publish <Type>` — writer-side
//     rebuilds that run before the new value is visible to readers;
//   - functions carrying a scoped `//lint:allow snapshotfree`.
//
// A scalar field write through a plain local value copy is also
// allowed (the copy is private), but an element write through a field
// is always flagged: copying the struct copies the slice and map
// headers, so the copy still aliases the published backing arrays —
// the exact trap this analyzer exists to catch.
//
// The marker is exported as a fact on the type, so client packages of
// core and placement inherit the contract.
package snapshotfree

import (
	"go/ast"
	"go/types"

	"mapsched/internal/lint/analysis"
	"mapsched/internal/lint/directive"
	"mapsched/internal/lint/scope"
)

// Name is the analyzer name recognized by //lint:allow directives.
const Name = "snapshotfree"

// immutableFact marks a type as immutable-after-publish for importing
// packages.
type immutableFact struct{}

func (*immutableFact) AFact()         {}
func (*immutableFact) String() string { return "immutable-after-publish" }

// Analyzer is the snapshotfree pass.
var Analyzer = &analysis.Analyzer{
	Name:      Name,
	Doc:       "forbid field/element writes to //lint:immutable-after-publish types outside constructors and //lint:publish republish sites",
	Run:       run,
	FactTypes: []analysis.Fact{new(immutableFact)},
}

type checker struct {
	pass      *analysis.Pass
	immutable map[*types.TypeName]bool
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !scope.PackageInScope(pass.Pkg.Path()) {
		return nil, nil
	}
	c := &checker{pass: pass, immutable: map[*types.TypeName]bool{}}
	c.collect()
	for _, f := range pass.Files {
		if scope.IsTestFile(pass, f) || directive.HeaderAllows(f, Name) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkFunc(fd)
			}
		}
	}
	return nil, nil
}

// collect gathers this package's marked types and exports the facts.
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
				if !directive.IsImmutableAfterPublish(gd.Doc, ts.Doc, ts.Comment) {
					continue
				}
				if tn, ok := c.pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
					c.immutable[tn] = true
					c.pass.ExportObjectFact(tn, &immutableFact{})
				}
			}
		}
	}
}

// immutableTypeOf resolves an expression type (through pointers) to a
// marked named type, consulting imported facts for foreign types.
func (c *checker) immutableTypeOf(t types.Type) *types.TypeName {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	tn := named.Obj()
	if c.immutable[tn] {
		return tn
	}
	if tn.Pkg() != nil && tn.Pkg() != c.pass.Pkg {
		if c.pass.ImportObjectFact(tn, new(immutableFact)) {
			return tn
		}
	}
	return nil
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	if directive.DeclAllows(fd.Doc, Name) {
		return
	}
	// owned: immutable types this function may legitimately write —
	// the types it constructs (result types declared in this package)
	// plus the one named by a //lint:publish marker.
	owned := map[*types.TypeName]bool{}
	if fd.Type.Results != nil {
		for _, res := range fd.Type.Results.List {
			if tn := c.immutableTypeOf(c.pass.TypesInfo.TypeOf(res.Type)); tn != nil && tn.Pkg() == c.pass.Pkg {
				owned[tn] = true
			}
		}
	}
	publish := directive.PublishType(fd.Doc)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				c.checkTarget(lhs, owned, publish)
			}
		case *ast.IncDecStmt:
			c.checkTarget(n.X, owned, publish)
		}
		return true
	})
}

// checkTarget inspects one assignment target: index/pointer layers
// are peeled (remembering whether the write goes through an element),
// and the final selector's base type decides whether the write lands
// inside a marked type.
func (c *checker) checkTarget(lhs ast.Expr, owned map[*types.TypeName]bool, publish string) {
	sawIndex := false
	e := lhs
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			sawIndex = true
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
	tn := c.immutableTypeOf(c.pass.TypesInfo.TypeOf(sel.X))
	if tn == nil || owned[tn] || publish == tn.Name() {
		return
	}
	if sawIndex {
		c.pass.Reportf(sel.Pos(),
			"element write through field %q of immutable-after-publish type %q; published snapshots are shared with concurrent readers (a value copy still aliases the backing array)",
			sel.Sel.Name, tn.Name())
		return
	}
	if isLocalValue(c.pass, sel.X) {
		return // scalar write into a private value copy
	}
	c.pass.Reportf(sel.Pos(),
		"write to field %q of immutable-after-publish type %q outside a constructor or //lint:publish site",
		sel.Sel.Name, tn.Name())
}

// isLocalValue reports whether the expression is a plain local
// variable holding the struct by value — a private copy whose scalar
// fields are safe to write.
func isLocalValue(pass *analysis.Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	if _, isPtr := v.Type().Underlying().(*types.Pointer); isPtr {
		return false
	}
	// Package-level vars are shared; only function-scoped copies pass.
	return v.Parent() != pass.Pkg.Scope()
}
