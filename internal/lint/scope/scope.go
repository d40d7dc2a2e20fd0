// Package scope decides which packages and files the schedlint
// analyzers apply to. The determinism contracts bind the simulation
// packages and the binaries built on them; the lint machinery itself,
// the examples, and test files are exempt.
package scope

import (
	"go/ast"
	"strings"

	"mapsched/internal/lint/analysis"
)

// module is the path prefix identifying this repository's packages.
// Packages outside the module (in particular the self-contained testdata
// packages the analyzer unit tests run on) are always in scope, so the
// analyzers can be exercised without recreating the module layout.
const module = "mapsched"

// PackageInScope reports whether the analyzers should lint the package
// with the given import path: everything in the module except the lint
// tooling itself and the illustrative examples, plus any non-module
// (testdata) package.
func PackageInScope(path string) bool {
	// go/types names external test packages "pkg_test" and go vet
	// suffixes the test variant; normalize before matching.
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	if path != module && !strings.HasPrefix(path, module+"/") {
		return true
	}
	switch {
	case strings.HasPrefix(path, module+"/internal/lint"),
		strings.HasPrefix(path, module+"/examples"):
		return false
	}
	return true
}

// IsTestFile reports whether f was parsed from a _test.go file. The
// determinism contracts constrain simulation and emission code, not the
// tests asserting on it (which freely use maps, wall clocks and t.Logf).
func IsTestFile(pass *analysis.Pass, f *ast.File) bool {
	return strings.HasSuffix(pass.Fset.Position(f.Package).Filename, "_test.go")
}
