// Package lockheld implements the schedlint analyzer enforcing the
// placement service's lock discipline (DESIGN.md §15): the Service is
// a writer-applies-deltas / concurrent-readers-decide structure whose
// mutable interior — epoch counter, journal writer, slot table, store
// — is only coherent under Service.mu. The convention that encodes
// this ("helpers that assume the lock are named *Locked, everything
// else locks for itself") was enforced only by review; this analyzer
// makes it checkable.
//
// Contract vocabulary (see the directive package):
//
//   - A struct field annotated `//lint:guarded <mu>` may be read only
//     while the sibling mutex <mu> is held (Lock or RLock), and
//     written only while write-locked — or inside a function exempted
//     below.
//   - A function named `*Locked` asserts it runs with its caller's
//     lock: its body is exempt, and every call to it must happen with
//     some lock held (or from another exempt function).
//   - A function annotated `//lint:locked <mu>` is the explicit form:
//     its body is checked as if <mu> were write-held, and call sites
//     must hold a mutex field named <mu>.
//   - `//lint:allow lockheld <reason>` on a declaration exempts that
//     one function (constructors that own their receiver exclusively,
//     audited escape-hatch accessors).
//
// Lock state is tracked positionally through each function body:
// mu.Lock()/RLock() opens a region keyed on the rendered receiver
// path ("s.mu", "d.svc.mu"), Unlock()/RUnlock() closes it, a deferred
// unlock keeps the region open to the end of the body, and branches
// are walked with copies so an early-return unlock does not leak into
// the fall-through path. Function literals run with the lock state of
// their call site when invoked in place (sort comparators, immediate
// calls) and with no locks otherwise (stored or returned closures).
//
// The analyzer also flags lock-scope escapes:
//
//   - goroutines launched while a lock is held (the lock does not
//     extend into the goroutine body, which is walked lock-free);
//   - guarded reference-typed fields returned while the guard is held
//     — the interior pointer outlives the deferred unlock, handing
//     callers unsynchronized state (a deliberate escape hatch needs a
//     //lint:allow lockheld line saying why);
//   - the PR 7 close-out bug class: `defer f(..., &v)` paired with
//     `return v` from a function with unnamed results — the deferred
//     write lands after the result is copied and never reaches the
//     caller.
//
// Guarded-field and locked-function markers are exported as Facts, so
// the contracts follow types across package boundaries into their
// clients (engine, replay, the mapsched façade).
package lockheld

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"mapsched/internal/lint/analysis"
	"mapsched/internal/lint/directive"
	"mapsched/internal/lint/scope"
)

// Name is the analyzer name recognized by //lint:allow directives.
const Name = "lockheld"

// guardedFact marks a struct field as protected by the sibling mutex
// field named Mu. Exported so the contract follows the field into
// importing packages.
type guardedFact struct{ Mu string }

func (*guardedFact) AFact()           {}
func (f *guardedFact) String() string { return "guarded:" + f.Mu }

// lockedFact marks a function annotated //lint:locked <mu>; call
// sites in other packages import it to learn the requirement (the
// *Locked naming convention needs no fact — the name travels).
type lockedFact struct{ Mu string }

func (*lockedFact) AFact()           {}
func (f *lockedFact) String() string { return "locked:" + f.Mu }

// Analyzer is the lockheld pass.
var Analyzer = &analysis.Analyzer{
	Name:      Name,
	Doc:       "enforce //lint:guarded field access under the named mutex, *Locked//lint:locked call-site discipline, and lock-scope escape rules",
	Run:       run,
	FactTypes: []analysis.Fact{new(guardedFact), new(lockedFact)},
}

type checker struct {
	pass    *analysis.Pass
	guarded map[*types.Var]string  // field -> guard mutex name
	locked  map[*types.Func]string // annotated func -> required mutex name
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !scope.PackageInScope(pass.Pkg.Path()) {
		return nil, nil
	}
	c := &checker{
		pass:    pass,
		guarded: map[*types.Var]string{},
		locked:  map[*types.Func]string{},
	}
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

// collect gathers this package's guarded fields and annotated locked
// functions and exports them as facts for importing packages.
func (c *checker) collect() {
	for _, f := range c.pass.Files {
		if scope.IsTestFile(c.pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := directive.GuardedMu(field)
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					if v, ok := c.pass.TypesInfo.Defs[name].(*types.Var); ok {
						c.guarded[v] = mu
						c.pass.ExportObjectFact(v, &guardedFact{Mu: mu})
					}
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			mu := directive.LockedMu(fd.Doc)
			if mu == "" {
				continue
			}
			if fn, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				c.locked[fn] = mu
				c.pass.ExportObjectFact(fn, &lockedFact{Mu: mu})
			}
		}
	}
}

// guardOf returns the guard mutex name of a field, consulting local
// markers first and imported facts for fields of other packages.
func (c *checker) guardOf(v *types.Var) string {
	if v == nil || !v.IsField() {
		return ""
	}
	if mu, ok := c.guarded[v]; ok {
		return mu
	}
	if v.Pkg() != nil && v.Pkg() != c.pass.Pkg {
		var f guardedFact
		if c.pass.ImportObjectFact(v, &f) {
			return f.Mu
		}
	}
	return ""
}

// lockReq returns the lock requirement of a callee: mu == "" with
// ok == true means "any lock held" (the *Locked naming convention),
// a non-empty mu names the specific mutex field.
func (c *checker) lockReq(fn *types.Func) (mu string, ok bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	if mu, ok := c.locked[fn]; ok {
		return mu, true
	}
	if strings.HasSuffix(fn.Name(), "Locked") {
		return "", true
	}
	if fn.Pkg() != c.pass.Pkg {
		var f lockedFact
		if c.pass.ImportObjectFact(fn, &f) {
			return f.Mu, true
		}
	}
	return "", false
}

type deferredPtr struct {
	v   *types.Var
	pos token.Pos
}

// walker carries the per-function state of one positional walk.
type walker struct {
	c        *checker
	pass     *analysis.Pass
	wildcard bool // *Locked body: every guard is presumed held

	syncLits map[*ast.FuncLit]bool // literals invoked at their call site
	deferred []deferredPtr         // &local handed to a deferred call
	defSeen  map[*types.Var]bool
	returned map[*types.Var]bool // locals returned by value
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	fn, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	if directive.DeclAllows(fd.Doc, Name) {
		return
	}
	w := &walker{
		c:        c,
		pass:     c.pass,
		wildcard: strings.HasSuffix(fd.Name.Name, "Locked"),
		syncLits: map[*ast.FuncLit]bool{},
		defSeen:  map[*types.Var]bool{},
		returned: map[*types.Var]bool{},
	}
	held := map[string]byte{}
	if mu, ok := c.locked[fn]; ok && mu != "" {
		// The annotation asserts the caller write-holds <mu>; check the
		// body under that assumption, keyed on the receiver when there
		// is one.
		key := mu
		if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
			key = fd.Recv.List[0].Names[0].Name + "." + mu
		}
		held[key] = 'w'
	}
	w.stmts(fd.Body.List, held)

	// PR 7 close-out bug class: a deferred call that writes through a
	// pointer to a local which is then returned by value from a
	// function with unnamed results — the deferred write lands after
	// the result was copied.
	if fd.Type.Results != nil && len(fd.Type.Results.List) > 0 && !hasNamedResults(fd.Type.Results) {
		for _, d := range w.deferred {
			if w.returned[d.v] {
				c.pass.Reportf(d.pos,
					"deferred call writes &%s but the results are unnamed; the deferred write is lost when the return value is copied",
					d.v.Name())
			}
		}
	}
}

func hasNamedResults(results *ast.FieldList) bool {
	for _, f := range results.List {
		if len(f.Names) > 0 {
			return true
		}
	}
	return false
}

// exprPath renders a selector chain ("s", "d.svc") for lock-region
// keys; "" when the expression is not a plain path.
func exprPath(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if b := exprPath(e.X); b != "" {
			return b + "." + e.Sel.Name
		}
	case *ast.ParenExpr:
		return exprPath(e.X)
	case *ast.StarExpr:
		return exprPath(e.X)
	}
	return ""
}

// lockOp recognizes a sync mutex method call and returns the rendered
// receiver path and the method name.
func (w *walker) lockOp(e ast.Expr) (key, method string, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := w.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return exprPath(sel.X), fn.Name(), true
	}
	return "", "", false
}

func copyHeld(held map[string]byte) map[string]byte {
	out := make(map[string]byte, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// heldFor reports whether the guard mutex <mu> of an access with the
// given base path is held (write-held when needWrite).
func heldFor(held map[string]byte, base, mu string, needWrite bool) bool {
	if base != "" {
		kind, ok := held[base+"."+mu]
		return ok && (!needWrite || kind == 'w')
	}
	for key, kind := range held {
		if (key == mu || strings.HasSuffix(key, "."+mu)) && (!needWrite || kind == 'w') {
			return true
		}
	}
	return false
}

func (w *walker) stmts(list []ast.Stmt, held map[string]byte) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func (w *walker) stmt(s ast.Stmt, held map[string]byte) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if key, method, ok := w.lockOp(s.X); ok {
			if key == "" {
				return
			}
			switch method {
			case "Lock":
				held[key] = 'w'
			case "RLock":
				held[key] = 'r'
			case "Unlock", "RUnlock":
				delete(held, key)
			}
			return
		}
		w.expr(s.X, held)
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			w.writeTarget(lhs, held)
		}
		for _, rhs := range s.Rhs {
			w.expr(rhs, held)
		}
	case *ast.IncDecStmt:
		w.writeTarget(s.X, held)
	case *ast.DeferStmt:
		w.deferStmt(s, held)
	case *ast.GoStmt:
		w.goStmt(s, held)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.returnEscape(r, held)
			w.expr(r, held)
			if id, ok := r.(*ast.Ident); ok {
				if v, ok := w.pass.TypesInfo.ObjectOf(id).(*types.Var); ok && !v.IsField() {
					w.returned[v] = true
				}
			}
		}
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		w.stmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			w.stmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		inner := copyHeld(held)
		w.stmts(s.Body.List, inner)
		if s.Post != nil {
			w.stmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		w.expr(s.X, held)
		if s.Tok == token.ASSIGN {
			if s.Key != nil {
				w.writeTarget(s.Key, held)
			}
			if s.Value != nil {
				w.writeTarget(s.Value, held)
			}
		}
		w.stmts(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Tag, held)
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CaseClause)
			for _, e := range clause.List {
				w.expr(e, held)
			}
			w.stmts(clause.Body, copyHeld(held))
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.stmt(s.Assign, held)
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CaseClause)
			w.stmts(clause.Body, copyHeld(held))
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CommClause)
			inner := copyHeld(held)
			if clause.Comm != nil {
				w.stmt(clause.Comm, inner)
			}
			w.stmts(clause.Body, inner)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.SendStmt:
		w.expr(s.Chan, held)
		w.expr(s.Value, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, held)
					}
				}
			}
		}
	}
}

// deferStmt: a deferred unlock keeps the region open to the end of
// the body; any other deferred call is checked with the lock state at
// the defer site (deferred close-outs run before the deferred unlock
// in the usual Lock-then-defer pattern), and &local arguments are
// recorded for the close-out check.
func (w *walker) deferStmt(s *ast.DeferStmt, held map[string]byte) {
	if _, method, ok := w.lockOp(s.Call); ok && (method == "Unlock" || method == "RUnlock") {
		return
	}
	w.expr(s.Call, held)
	for _, arg := range s.Call.Args {
		u, ok := arg.(*ast.UnaryExpr)
		if !ok || u.Op != token.AND {
			continue
		}
		id, ok := u.X.(*ast.Ident)
		if !ok {
			continue
		}
		if v, ok := w.pass.TypesInfo.ObjectOf(id).(*types.Var); ok && !v.IsField() && !w.defSeen[v] {
			w.defSeen[v] = true
			w.deferred = append(w.deferred, deferredPtr{v: v, pos: s.Pos()})
		}
	}
}

// goStmt: the goroutine body does not inherit the launcher's locks —
// launching one inside a lock region is itself a scope escape, the
// arguments are evaluated under the current locks, and the body (or
// named callee) is checked lock-free.
func (w *walker) goStmt(s *ast.GoStmt, held map[string]byte) {
	if len(held) > 0 && !w.wildcard {
		keys := make([]string, 0, len(held))
		for k := range held {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.pass.Reportf(s.Pos(),
			"goroutine launched while %q is held; the lock does not cover the goroutine body", keys[0])
	}
	for _, arg := range s.Call.Args {
		if fl, ok := arg.(*ast.FuncLit); ok {
			w.stmts(fl.Body.List, map[string]byte{})
			continue
		}
		w.expr(arg, held)
	}
	if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
		w.stmts(fl.Body.List, map[string]byte{})
		return
	}
	if sel, ok := s.Call.Fun.(*ast.SelectorExpr); ok {
		w.expr(sel.X, held)
	}
	w.callCheck(s.Call, map[string]byte{})
}

// expr checks guarded reads and callee lock requirements in an
// expression evaluated under the given lock state. Function literals
// invoked at their call site (immediate calls, comparator arguments)
// run under the caller's locks; literals in any other position are
// stored or returned closures and are walked lock-free.
func (w *walker) expr(e ast.Expr, held map[string]byte) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			inner := map[string]byte{}
			if w.syncLits[n] {
				inner = copyHeld(held)
			}
			w.stmts(n.Body.List, inner)
			return false
		case *ast.CallExpr:
			w.callCheck(n, held)
			if fl, ok := n.Fun.(*ast.FuncLit); ok {
				w.syncLits[fl] = true
			}
			for _, a := range n.Args {
				if fl, ok := a.(*ast.FuncLit); ok {
					w.syncLits[fl] = true
				}
			}
		case *ast.SelectorExpr:
			w.readCheck(n, held)
		}
		return true
	})
}

func (w *walker) readCheck(sel *ast.SelectorExpr, held map[string]byte) {
	v, ok := w.pass.TypesInfo.ObjectOf(sel.Sel).(*types.Var)
	if !ok {
		return
	}
	mu := w.c.guardOf(v)
	if mu == "" || w.wildcard {
		return
	}
	if heldFor(held, exprPath(sel.X), mu, false) {
		return
	}
	w.pass.Reportf(sel.Pos(), "read of guarded field %q without %q held", v.Name(), mu)
}

// writeTarget checks an assignment target: index and pointer layers
// are peeled so element writes through a guarded field count, index
// operands and the base path are still read-checked.
func (w *walker) writeTarget(lhs ast.Expr, held map[string]byte) {
	e := lhs
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			w.expr(x.Index, held)
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
	v, isVar := w.pass.TypesInfo.ObjectOf(sel.Sel).(*types.Var)
	if isVar {
		if mu := w.c.guardOf(v); mu != "" && !w.wildcard {
			base := exprPath(sel.X)
			switch {
			case heldFor(held, base, mu, true):
				// write-locked: fine
			case heldFor(held, base, mu, false):
				w.pass.Reportf(sel.Pos(),
					"write to guarded field %q under read lock %q; the write lock is required", v.Name(), mu)
			default:
				w.pass.Reportf(sel.Pos(),
					"write to guarded field %q without %q write-locked", v.Name(), mu)
			}
		}
	}
	w.expr(sel.X, held)
}

// callCheck enforces the *Locked//lint:locked call-site discipline.
func (w *walker) callCheck(call *ast.CallExpr, held map[string]byte) {
	var id *ast.Ident
	var base ast.Expr
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
		base = fun.X
	default:
		return
	}
	fn, ok := w.pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return
	}
	mu, required := w.c.lockReq(fn)
	if !required || w.wildcard {
		return
	}
	if mu == "" {
		if len(held) > 0 {
			return
		}
		w.pass.Reportf(call.Pos(),
			"call to %q without a lock held (*Locked functions run under their caller's lock)", fn.Name())
		return
	}
	// The annotated guard is a mutex on the callee's receiver: for a
	// method call s.apply(...) the matching region key is "s.<mu>".
	basePath := ""
	if base != nil {
		basePath = exprPath(base)
	}
	if heldFor(held, basePath, mu, false) {
		return
	}
	w.pass.Reportf(call.Pos(),
		"call to %q requires %q held (//lint:locked %s)", fn.Name(), mu, mu)
}

// returnEscape flags returning a guarded reference-typed field while
// its guard is held: the interior pointer outlives the deferred
// unlock and hands the caller unsynchronized state.
func (w *walker) returnEscape(r ast.Expr, held map[string]byte) {
	if w.wildcard {
		return
	}
	e := r
	for {
		if p, ok := e.(*ast.ParenExpr); ok {
			e = p.X
			continue
		}
		break
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return
	}
	v, ok := w.pass.TypesInfo.ObjectOf(sel.Sel).(*types.Var)
	if !ok {
		return
	}
	mu := w.c.guardOf(v)
	if mu == "" || !isRefType(v.Type()) {
		return
	}
	if !heldFor(held, exprPath(sel.X), mu, false) {
		return // unguarded read: readCheck reports it
	}
	w.pass.Reportf(sel.Pos(),
		"returning guarded field %q escapes the %q lock scope; return a copy or add a scoped //lint:allow %s with a justification",
		v.Name(), mu, Name)
}

func isRefType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}
