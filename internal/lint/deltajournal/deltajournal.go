// Package deltajournal implements the schedlint analyzer enforcing
// the journal symmetry contract (DESIGN.md §16): the crash-safe
// placement service is only recoverable if the journal op vocabulary
// and the delta vocabulary stay in lockstep. PR 8 made the "new delta
// added without journal/replay coverage" bug class possible — a new
// Apply* method that forgets to journal, or a new Op constant missing
// from the decode or replay switch, silently loses state on recovery.
// This analyzer closes all three gaps:
//
//   - Every constant of a type marked `//lint:journal-ops` must be
//     used somewhere outside decode switches — an op that only ever
//     appears in case clauses (or nowhere) has no encode path.
//   - Every function marked `//lint:journal-exhaustive <Type>
//     [except C1,C2]` must switch over the op type and cover every
//     constant not listed as an exception; a `default` clause does
//     not count as coverage.
//   - Every Apply*/Update* method of a type marked `//lint:journaled`
//     must reach (directly or through intra-package calls, resolved
//     to a fixed point like epochbump) a function marked
//     `//lint:journal-append`; read-only exceptions carry a scoped
//     `//lint:allow deltajournal` with a justification.
package deltajournal

import (
	"go/ast"
	"go/types"
	"strings"

	"mapsched/internal/lint/analysis"
	"mapsched/internal/lint/directive"
	"mapsched/internal/lint/scope"
)

// Name is the analyzer name recognized by //lint:allow directives.
const Name = "deltajournal"

// Analyzer is the deltajournal pass.
var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc:  "require journal Op enums to be encoded, decode/apply switches to be exhaustive, and //lint:journaled delta methods to reach a //lint:journal-append helper",
	Run:  run,
}

type checker struct {
	pass      *analysis.Pass
	opsTypes  map[*types.TypeName]bool
	opConsts  map[*types.TypeName][]*types.Const // declaration order
	journaled map[*types.TypeName]bool
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !scope.PackageInScope(pass.Pkg.Path()) {
		return nil, nil
	}
	c := &checker{
		pass:      pass,
		opsTypes:  map[*types.TypeName]bool{},
		opConsts:  map[*types.TypeName][]*types.Const{},
		journaled: map[*types.TypeName]bool{},
	}
	c.collectTypes()
	if len(c.opsTypes) == 0 && len(c.journaled) == 0 {
		return nil, nil
	}
	c.collectConsts()
	c.checkEncodeCoverage()
	c.checkExhaustiveSwitches()
	c.checkDeltaMethods()
	return nil, nil
}

func (c *checker) files() []*ast.File {
	var out []*ast.File
	for _, f := range c.pass.Files {
		if scope.IsTestFile(c.pass, f) || directive.HeaderAllows(f, Name) {
			continue
		}
		out = append(out, f)
	}
	return out
}

func (c *checker) collectTypes() {
	for _, f := range c.files() {
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
				tn, ok := c.pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				if directive.IsJournalOps(gd.Doc, ts.Doc, ts.Comment) {
					c.opsTypes[tn] = true
				}
				if directive.IsJournaled(gd.Doc, ts.Doc, ts.Comment) {
					c.journaled[tn] = true
				}
			}
		}
	}
}

// collectConsts gathers, in declaration order, the package's constants
// of each journal-ops type.
func (c *checker) collectConsts() {
	for _, f := range c.files() {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					cst, ok := c.pass.TypesInfo.Defs[name].(*types.Const)
					if !ok {
						continue
					}
					if tn := c.opsTypeOf(cst.Type()); tn != nil {
						c.opConsts[tn] = append(c.opConsts[tn], cst)
					}
				}
			}
		}
	}
}

func (c *checker) opsTypeOf(t types.Type) *types.TypeName {
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if c.opsTypes[named.Obj()] {
		return named.Obj()
	}
	return nil
}

// checkEncodeCoverage flags op constants whose only uses are decode
// case clauses: they have no encode path, so the op can never reach
// the journal.
func (c *checker) checkEncodeCoverage() {
	inCase := map[*ast.Ident]bool{}
	encoded := map[*types.Const]bool{}
	for _, f := range c.files() {
		ast.Inspect(f, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					ast.Inspect(e, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							inCase[id] = true
						}
						return true
					})
				}
			}
			return true
		})
	}
	for _, f := range c.files() {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || inCase[id] {
				return true
			}
			cst, ok := c.pass.TypesInfo.Uses[id].(*types.Const)
			if !ok {
				return true
			}
			if c.opsTypeOf(cst.Type()) != nil {
				encoded[cst] = true
			}
			return true
		})
	}
	for tn, consts := range c.opConsts {
		for _, cst := range consts {
			if !encoded[cst] {
				c.pass.Reportf(cst.Pos(),
					"journal op %q of %q is declared but never encoded: its only uses are decode case clauses (or none at all)",
					cst.Name(), tn.Name())
			}
		}
	}
}

// checkExhaustiveSwitches verifies every //lint:journal-exhaustive
// function covers the full op vocabulary minus its exceptions.
func (c *checker) checkExhaustiveSwitches() {
	for _, f := range c.files() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			typeName, except := directive.JournalExhaustive(fd.Doc)
			if typeName == "" || directive.DeclAllows(fd.Doc, Name) {
				continue
			}
			var target *types.TypeName
			for tn := range c.opsTypes {
				if tn.Name() == typeName {
					target = tn
					break
				}
			}
			if target == nil {
				c.pass.Reportf(fd.Name.Pos(),
					"//lint:journal-exhaustive names %q, which is not a //lint:journal-ops type in this package", typeName)
				continue
			}
			covered := map[*types.Const]bool{}
			var firstSwitch *ast.SwitchStmt
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok || sw.Tag == nil {
					return true
				}
				if c.opsTypeOf(c.pass.TypesInfo.TypeOf(sw.Tag)) != target {
					return true
				}
				if firstSwitch == nil {
					firstSwitch = sw
				}
				for _, cc := range sw.Body.List {
					clause := cc.(*ast.CaseClause)
					for _, e := range clause.List {
						ast.Inspect(e, func(m ast.Node) bool {
							if id, ok := m.(*ast.Ident); ok {
								if cst, ok := c.pass.TypesInfo.Uses[id].(*types.Const); ok {
									covered[cst] = true
								}
							}
							return true
						})
					}
				}
				return true
			})
			if firstSwitch == nil {
				c.pass.Reportf(fd.Name.Pos(),
					"%s declares //lint:journal-exhaustive %s but contains no switch over it", fd.Name.Name, typeName)
				continue
			}
			excepted := map[string]bool{}
			for _, e := range except {
				excepted[e] = true
			}
			var missing []string
			for _, cst := range c.opConsts[target] {
				if !covered[cst] && !excepted[cst.Name()] {
					missing = append(missing, cst.Name())
				}
			}
			if len(missing) > 0 {
				c.pass.Reportf(firstSwitch.Pos(),
					"journal-exhaustive switch over %q misses %s; a recovered journal containing that op would be dropped",
					target.Name(), strings.Join(missing, ", "))
			}
		}
	}
}

// checkDeltaMethods requires every Apply*/Update* method of a
// //lint:journaled type to reach a //lint:journal-append helper,
// propagated to a fixed point over the intra-package call graph.
func (c *checker) checkDeltaMethods() {
	if len(c.journaled) == 0 {
		return
	}
	type funcInfo struct {
		decl    *ast.FuncDecl
		reaches bool
		callees []*types.Func
	}
	infos := map[*types.Func]*funcInfo{}
	var order []*types.Func
	for _, f := range c.files() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			info := &funcInfo{decl: fd, reaches: directive.IsJournalAppend(fd.Doc)}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var id *ast.Ident
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					id = fun
				case *ast.SelectorExpr:
					id = fun.Sel
				}
				if id == nil {
					return true
				}
				if callee, ok := c.pass.TypesInfo.Uses[id].(*types.Func); ok && callee.Pkg() == c.pass.Pkg {
					info.callees = append(info.callees, callee)
				}
				return true
			})
			infos[fn] = info
			order = append(order, fn)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			info := infos[fn]
			if info.reaches {
				continue
			}
			for _, callee := range info.callees {
				if ci, ok := infos[callee]; ok && ci.reaches {
					info.reaches = true
					changed = true
					break
				}
			}
		}
	}
	for _, fn := range order {
		info := infos[fn]
		fd := info.decl
		if info.reaches || fd.Recv == nil || directive.DeclAllows(fd.Doc, Name) {
			continue
		}
		name := fd.Name.Name
		if !strings.HasPrefix(name, "Apply") && !strings.HasPrefix(name, "Update") {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		recvT := sig.Recv().Type()
		if p, ok := recvT.Underlying().(*types.Pointer); ok {
			recvT = p.Elem()
		}
		named, ok := recvT.(*types.Named)
		if !ok || !c.journaled[named.Obj()] {
			continue
		}
		c.pass.Reportf(fd.Name.Pos(),
			"delta method %q of journaled type %q never reaches a //lint:journal-append helper; the delta would be lost on recovery",
			name, named.Obj().Name())
	}
}
