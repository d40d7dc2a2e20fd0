// Package errcmp implements the schedlint analyzer enforcing the
// sentinel-error comparison contract: error variables annotated
// `//lint:sentinel` (the ErrDeltaConflict hierarchy, ErrDeciderInvalid,
// the root package's replay-envelope error, ErrInvalidOption) must be
// compared with errors.Is, never `==`/`!=` or an identity switch. The
// placement errors deliberately wrap — ErrStaleSlot and friends carry
// ErrDeltaConflict in their chain — so an identity comparison that
// happens to pass today silently stops matching the moment a call
// site adds context with fmt.Errorf("...: %w", err).
//
// `==`/`!=` comparisons get an analysis.SuggestedFix rewriting to
// errors.Is(x, Sentinel) / !errors.Is(x, Sentinel), applied
// mechanically by `make lint-fix` (the fix does not manage imports;
// a file comparing sentinels invariably imports "errors" already).
// Identity switches are reported per case without an autofix — the
// rewrite to an if/else chain is structural.
//
// The marker is exported as a fact on each sentinel var, so client
// packages comparing placement's exported sentinels inherit the
// contract.
package errcmp

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"mapsched/internal/lint/directive"
	"mapsched/internal/lint/scope"
)

// Name is the analyzer name recognized by //lint:allow directives.
const Name = "errcmp"

// sentinelFact marks an error var as an errors.Is-only sentinel for
// importing packages.
type sentinelFact struct{}

func (*sentinelFact) AFact()         {}
func (*sentinelFact) String() string { return "sentinel" }

// Analyzer is the errcmp pass.
var Analyzer = &analysis.Analyzer{
	Name:      Name,
	Doc:       "require //lint:sentinel errors to be compared with errors.Is, never == or identity switch, with a suggested rewrite",
	Run:       run,
	FactTypes: []analysis.Fact{new(sentinelFact)},
}

type checker struct {
	pass      *analysis.Pass
	sentinels map[*types.Var]bool
	// file is the file currently being checked; the suggested fix
	// consults its import table so the errors.Is rewrite can carry an
	// `"errors"` import insertion when the file lacks one.
	file *ast.File
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !scope.PackageInScope(pass.Pkg.Path()) {
		return nil, nil
	}
	c := &checker{pass: pass, sentinels: map[*types.Var]bool{}}
	c.collect()
	for _, f := range pass.Files {
		if scope.IsTestFile(pass, f) || directive.HeaderAllows(f, Name) {
			continue
		}
		c.file = f
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if !directive.DeclAllows(fd.Doc, Name) {
					c.checkFunc(fd)
				}
			}
		}
	}
	return nil, nil
}

// collect gathers this package's marked sentinel vars and exports the
// facts. A //lint:sentinel on a var block's doc covers every var in
// the block; on a ValueSpec it covers that spec alone.
func (c *checker) collect() {
	for _, f := range c.pass.Files {
		if scope.IsTestFile(c.pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			blockMarked := directive.IsSentinel(gd.Doc)
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if !blockMarked && !directive.IsSentinel(vs.Doc, vs.Comment) {
					continue
				}
				for _, name := range vs.Names {
					if v, ok := c.pass.TypesInfo.Defs[name].(*types.Var); ok {
						c.sentinels[v] = true
						c.pass.ExportObjectFact(v, &sentinelFact{})
					}
				}
			}
		}
	}
}

// sentinel resolves an expression to a marked sentinel var, consulting
// imported facts for other packages' sentinels.
func (c *checker) sentinel(e ast.Expr) *types.Var {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	if c.sentinels[v] {
		return v
	}
	if v.Pkg() != nil && v.Pkg() != c.pass.Pkg {
		if c.pass.ImportObjectFact(v, new(sentinelFact)) {
			return v
		}
	}
	return nil
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				c.checkCompare(n)
			}
		case *ast.SwitchStmt:
			if n.Tag == nil {
				return true
			}
			for _, cc := range n.Body.List {
				clause := cc.(*ast.CaseClause)
				for _, e := range clause.List {
					if v := c.sentinel(e); v != nil {
						c.pass.Reportf(e.Pos(),
							"sentinel error %q in identity switch; wrapped errors never match — rewrite as an if/else chain using errors.Is",
							v.Name())
					}
				}
			}
		}
		return true
	})
}

func (c *checker) checkCompare(be *ast.BinaryExpr) {
	x, s := be.X, be.Y
	v := c.sentinel(s)
	if v == nil {
		v = c.sentinel(x)
		if v == nil {
			return
		}
		x, s = s, x
	}
	op := "=="
	if be.Op == token.NEQ {
		op = "!="
	}
	rewrite := fmt.Sprintf("errors.Is(%s, %s)", render(c.pass.Fset, x), render(c.pass.Fset, s))
	if be.Op == token.NEQ {
		rewrite = "!" + rewrite
	}
	c.pass.Report(analysis.Diagnostic{
		Pos: be.Pos(),
		End: be.End(),
		Message: fmt.Sprintf(
			"sentinel error %q compared with %s; wrapped errors escape identity comparison — use %s",
			v.Name(), op, rewrite),
		SuggestedFixes: []analysis.SuggestedFix{{
			Message: fmt.Sprintf("replace %s comparison with %s", op, rewrite),
			TextEdits: append([]analysis.TextEdit{{
				Pos:     be.Pos(),
				End:     be.End(),
				NewText: []byte(rewrite),
			}}, c.importFix()...),
		}},
	})
}

// importFix returns the extra edit that inserts an `"errors"` import
// when the current file has none — without it the errors.Is rewrite
// would not compile. The spec is inserted at its sorted position in
// the file's first import block (identical insertions across multiple
// diagnostics in one file deduplicate at apply time); a file with no
// import declaration gets a fresh one after the package clause.
func (c *checker) importFix() []analysis.TextEdit {
	f := c.file
	if f == nil {
		return nil
	}
	var block *ast.GenDecl
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT {
			continue
		}
		for _, spec := range gd.Specs {
			if is, ok := spec.(*ast.ImportSpec); ok && is.Path.Value == `"errors"` {
				return nil
			}
		}
		if block == nil {
			block = gd
		}
	}
	if block == nil {
		pos := f.Name.End()
		return []analysis.TextEdit{{Pos: pos, End: pos, NewText: []byte("\n\nimport \"errors\"")}}
	}
	if !block.Lparen.IsValid() {
		// Single-spec form: grow it into its own line after the decl.
		pos := block.End()
		return []analysis.TextEdit{{Pos: pos, End: pos, NewText: []byte("\nimport \"errors\"")}}
	}
	for _, spec := range block.Specs {
		is, ok := spec.(*ast.ImportSpec)
		if !ok || is.Path.Value < `"errors"` {
			continue
		}
		return []analysis.TextEdit{{Pos: is.Pos(), End: is.Pos(), NewText: []byte("\"errors\"\n\t")}}
	}
	last := block.Specs[len(block.Specs)-1]
	return []analysis.TextEdit{{Pos: last.End(), End: last.End(), NewText: []byte("\n\t\"errors\"")}}
}

func render(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "<expr>"
	}
	return buf.String()
}
