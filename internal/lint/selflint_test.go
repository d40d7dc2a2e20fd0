package lint_test

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mapsched/internal/lint"
)

// TestSuiteComposition pins the analyzer roster and its order: ten
// analyzers, the determinism/cache contracts first, then the
// concurrency/persistence contracts, then the task-state funnel. A new
// analyzer (or a dropped one) must show up here deliberately.
func TestSuiteComposition(t *testing.T) {
	want := []string{
		"nodeterminism",
		"epochbump",
		"poolreset",
		"obsvocab",
		"optflag",
		"lockheld",
		"snapshotfree",
		"deltajournal",
		"errcmp",
		"funnel",
	}
	got := lint.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
	}
}

// TestSelfLint builds the schedlint vet tool and runs it over the
// whole repository: the ten analyzers must pass clean on the
// codebase whose invariants they encode (the no-false-positive check
// on real code, and the gate that keeps future PRs honest). This is
// the same invocation `make lint` and CI use.
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the module and re-typechecks every package")
	}

	root, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	moduleDir := strings.TrimSpace(string(root))

	bin := filepath.Join(t.TempDir(), "schedlint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/schedlint")
	build.Dir = moduleDir
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building schedlint: %v\n%s", err, out)
	}

	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = moduleDir
	var buf bytes.Buffer
	vet.Stdout = &buf
	vet.Stderr = &buf
	if err := vet.Run(); err != nil {
		t.Fatalf("schedlint found violations in the repository:\n%s", buf.String())
	}
	if s := strings.TrimSpace(buf.String()); s != "" {
		t.Errorf("schedlint produced unexpected output on a clean repo:\n%s", s)
	}
}
