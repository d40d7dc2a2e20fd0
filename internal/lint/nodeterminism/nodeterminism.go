// Package nodeterminism implements the schedlint analyzer that keeps
// wall-clock time, the global math/rand stream, and unordered map
// iteration out of the simulation packages.
//
// The simulator's contract is byte-determinism: a fixed seed must
// reproduce a bit-identical event log and bit-identical experiment
// tables. Three bug classes silently break that contract:
//
//   - time.Now / time.Since smuggle wall-clock time into simulated
//     state or emitted output;
//   - package-level math/rand draws pull from the unseeded (Go 1.20+:
//     randomly seeded) global stream instead of the run's sim.RNG;
//   - `for range m` over a map observes Go's randomized iteration
//     order; appending to an outer slice or emitting events inside
//     such a loop captures that order unless the result is sorted
//     immediately afterwards.
//
// A file can opt out with a file-level `//lint:allow nodeterminism`
// directive — used by internal/sim/rng.go (the one sanctioned
// math/rand consumer, wrapping a seeded source) and by cmd binaries
// that print wall-clock progress to stderr.
package nodeterminism

import (
	"go/ast"
	"go/token"
	"go/types"

	"mapsched/internal/lint/analysis"
	"mapsched/internal/lint/directive"
	"mapsched/internal/lint/scope"
)

// Name is the analyzer name recognized by //lint:allow directives.
const Name = "nodeterminism"

// Analyzer is the nodeterminism pass.
var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc:  "forbid wall-clock reads, global math/rand draws, and map-iteration order escaping into simulation state or output",
	Run:  run,
}

// forbiddenTime are the time package functions that read or depend on
// the wall clock. Duration constants and arithmetic remain fine.
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// allowedRand are the math/rand (and rand/v2) constructors that build
// explicitly seeded generators; every other package-level function
// draws from or reseeds the global stream.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// emitters are method names whose call inside a map-range loop pushes
// per-iteration data to an observer, writer or stream in map order.
var emitters = map[string]bool{
	"Emit": true, "Observe": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !scope.PackageInScope(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		if scope.IsTestFile(pass, f) || directive.FileAllows(f, Name) {
			continue
		}
		checkFile(pass, f)
	}
	return nil, nil
}

func checkFile(pass *analysis.Pass, f *ast.File) {
	// blocks tracks the enclosing statement lists so a map-range loop can
	// look at the statements that follow it (the sort-after idiom).
	var blocks []*ast.BlockStmt
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			blocks = append(blocks, n)
			for _, st := range n.List {
				ast.Inspect(st, walk)
			}
			blocks = blocks[:len(blocks)-1]
			return false
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					checkMapRange(pass, n, enclosing(blocks))
				}
			}
		}
		return true
	}
	ast.Inspect(f, walk)
}

func enclosing(blocks []*ast.BlockStmt) *ast.BlockStmt {
	if len(blocks) == 0 {
		return nil
	}
	return blocks[len(blocks)-1]
}

// pkgFunc returns the package path and name of the package-level
// function called by fun, or "" when fun is not one (methods,
// builtins, conversions, locals).
func pkgFunc(pass *analysis.Pass, fun ast.Expr) (pkg, name string) {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	pkg, name := pkgFunc(pass, call.Fun)
	switch pkg {
	case "time":
		if forbiddenTime[name] {
			pass.Reportf(call.Pos(), "call to time.%s reads the wall clock in a deterministic package; use the simulation clock (sim.Engine.Now) or move the timing to a //lint:allow-annotated entry point", name)
		}
	case "math/rand", "math/rand/v2":
		if !allowedRand[name] {
			pass.Reportf(call.Pos(), "call to global %s.%s draws from the unseeded process-wide stream; use the run's seeded *sim.RNG", pathBase(pkg), name)
		}
	}
}

func pathBase(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[i+1:]
		}
	}
	return p
}

// checkMapRange flags order-capturing operations inside a range over a
// map: appends (or string +=) to variables declared outside the loop
// whose result is not sorted in the statements following the loop, any
// emitter method call, fmt printing, and channel sends.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, parent *ast.BlockStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkOrderCapturingAssign(pass, n, rng, parent)
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside map iteration publishes values in nondeterministic map order; iterate sorted keys instead")
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if _, isMethod := pass.TypesInfo.Selections[sel]; isMethod && emitters[sel.Sel.Name] {
					pass.Reportf(n.Pos(), "%s call inside map iteration emits in nondeterministic map order; iterate sorted keys instead", sel.Sel.Name)
				}
			}
			if pkg, name := pkgFunc(pass, n.Fun); pkg == "fmt" && name != "Sprintf" && name != "Errorf" && name != "Sprint" && name != "Sprintln" {
				pass.Reportf(n.Pos(), "fmt.%s inside map iteration prints in nondeterministic map order; iterate sorted keys instead", name)
			}
		}
		return true
	})
}

// checkOrderCapturingAssign handles `x = append(x, ...)` and `s += ...`
// targeting a variable declared outside the loop.
func checkOrderCapturingAssign(pass *analysis.Pass, as *ast.AssignStmt, rng *ast.RangeStmt, parent *ast.BlockStmt) {
	if len(as.Lhs) != 1 {
		return
	}
	target := rootObject(pass, as.Lhs[0])
	if target == nil || declaredWithin(target, rng) {
		return
	}
	verb := ""
	switch as.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(as.Rhs) == 1 && isAppendCall(pass, as.Rhs[0]) {
			verb = "append to"
		}
	case token.ADD_ASSIGN:
		if t := pass.TypesInfo.TypeOf(as.Lhs[0]); t != nil {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				verb = "string concatenation into"
			}
		}
	}
	if verb == "" {
		return
	}
	if sortedAfter(pass, rng, parent, target) {
		return
	}
	pass.Reportf(as.Pos(), "%s %s inside map iteration captures nondeterministic map order; sort the result immediately after the loop or iterate sorted keys", verb, target.Name())
}

func isAppendCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// rootObject resolves the variable an lvalue ultimately writes: the
// identifier itself, or the field object of a selector (appending to a
// struct field in map order is just as order-capturing).
func rootObject(pass *analysis.Pass, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return pass.TypesInfo.ObjectOf(e)
	case *ast.SelectorExpr:
		return pass.TypesInfo.ObjectOf(e.Sel)
	case *ast.IndexExpr:
		return rootObject(pass, e.X)
	}
	return nil
}

func declaredWithin(obj types.Object, n ast.Node) bool {
	return obj.Pos() >= n.Pos() && obj.Pos() < n.End()
}

// sortedAfter reports whether a statement after rng in its enclosing
// block sorts the captured variable: a call to any sort.* or slices.*
// function that mentions the variable. This recognizes the canonical
//
//	for k := range m { keys = append(keys, k) }
//	sort.Strings(keys)
//
// idiom (and sort.Slice / slices.Sort / slices.SortFunc variants).
func sortedAfter(pass *analysis.Pass, rng *ast.RangeStmt, parent *ast.BlockStmt, obj types.Object) bool {
	if parent == nil {
		return false
	}
	idx := -1
	for i, st := range parent.List {
		if st == rng {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	for _, st := range parent.List[idx+1:] {
		found := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			if pkg, _ := pkgFunc(pass, call.Fun); pkg != "sort" && pkg != "slices" {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
						found = true
					}
					return !found
				})
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
