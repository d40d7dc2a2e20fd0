package lint_test

import (
	"go/ast"
	"path/filepath"
	"strings"
	"testing"
)

// stateMutators are the methods that change scheduler-visible cluster
// state: slot occupancy, node health, host-link capacity and replica
// sets. The placement Service's Apply* deltas are the one path that may
// call them, because that path validates, journals and counts each
// change in the delta epoch.
var stateMutators = map[string]bool{
	"AcquireSlot": true, "ReleaseSlot": true,
	"SetOffline": true, "SetBlacklisted": true, "SetHostLinkFactor": true,
	"RemoveNodeReplicas": true, "SetReplicas": true,
}

// stateOwners are the packages allowed to call stateMutators: the
// placement service and the packages that declare the mutated state.
var stateOwners = []string{"placement", "cluster", "hdfs", "topology"}

// TestOneMutationPath fails when non-test code outside the state owners
// calls a state mutator directly instead of applying a placement delta.
// The match is by method name, so a same-named method of an unrelated
// type would be flagged too; rename it rather than widening the list.
func TestOneMutationPath(t *testing.T) {
	var owned []string
	for _, p := range stateOwners {
		owned = append(owned, filepath.Join(moduleRoot, "internal", p)+string(filepath.Separator))
	}
	var found []*ast.SelectorExpr
	fset := walkModule(t, func(path string, f *ast.File) {
		for _, dir := range owned {
			if strings.HasPrefix(path, dir) {
				return
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && stateMutators[sel.Sel.Name] {
					found = append(found, sel)
				}
			}
			return true
		})
	})
	for _, sel := range found {
		t.Errorf("%s: %s mutates cluster state behind the placement service; apply the matching Service delta instead",
			fset.Position(sel.Pos()), sel.Sel.Name)
	}
}
