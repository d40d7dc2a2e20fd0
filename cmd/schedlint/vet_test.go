package main

import (
	"bytes"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// fixture is a module of its own: a declares one object per
// fact-carrying marker, b imports a, and c imports only b.
const fixture = "testdata/vetfacts"

// buildDriver builds this command into a temp dir.
func buildDriver(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "schedlint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building schedlint: %v\n%s", err, out)
	}
	return bin
}

// vet runs go vet with the driver in dir and returns its combined
// output and whether it exited zero.
func vet(t *testing.T, dir, bin string, args ...string) (string, bool) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + bin}, args...)...)
	cmd.Dir = dir
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	err := cmd.Run()
	if _, ok := err.(*exec.ExitError); err != nil && !ok {
		t.Fatalf("go vet: %v", err)
	}
	return buf.String(), err == nil
}

// TestVetCarriesFactsAcrossPackages runs the driver under real go vet,
// so the facts travel in vet's fact files. c's three findings need a's
// facts, which reach c only if b's fact file carries them onward.
func TestVetCarriesFactsAcrossPackages(t *testing.T) {
	out, ok := vet(t, fixture, buildDriver(t), "./...")
	if ok {
		t.Fatalf("go vet exited zero on the fixture:\n%s", out)
	}
	want := []string{
		`b/b.go:14:9: sentinel error "ErrGone" compared with ==`,
		`c/c.go:10:2: write to guarded field "Count" without "Mu" write-locked`,
		`c/c.go:11:7: write to //lint:funnel field "State" of Task outside its funnel`,
		`c/c.go:12:2: write to field "Version" of immutable-after-publish type "Snapshot"`,
	}
	var got []string
	for _, line := range strings.Split(out, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			got = append(got, line)
		}
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("no diagnostic %q", w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d diagnostics, want %d:\n%s", len(got), len(want), out)
	}
}

// TestLintFixEndToEnd is `make lint-fix` on a copy of the fixture: the
// driver's own -json stream goes through runApply, which must splice
// b's errors.Is rewrite, and the packages it fixed then vet clean.
func TestLintFixEndToEnd(t *testing.T) {
	bin := buildDriver(t)
	dir := t.TempDir()
	err := filepath.WalkDir(fixture, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, strings.TrimPrefix(path, fixture))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}

	stream, ok := vet(t, dir, bin, "-json", "./...")
	if !ok {
		t.Fatalf("go vet -json exited non-zero:\n%s", stream)
	}
	input := filepath.Join(t.TempDir(), "vet.json")
	if err := os.WriteFile(input, []byte(stream), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := runApply([]string{input})
	if err != nil {
		t.Fatalf("runApply: %v\n%s", err, stream)
	}
	if n != 2 {
		t.Errorf("applied %d edits, want 2 (the rewrite and the errors import)", n)
	}

	got, err := os.ReadFile(filepath.Join(dir, "b", "b.go"))
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join(fixture, "b", "b.go"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.NewReplacer(
		`import "vetfacts/a"`, "import \"vetfacts/a\"\nimport \"errors\"",
		`err == a.ErrGone`, `errors.Is(err, a.ErrGone)`,
	).Replace(string(src))
	if string(got) != want {
		t.Errorf("b.go after apply:\n%s\nwant:\n%s", got, want)
	}
	if out, ok := vet(t, dir, bin, "./a", "./b"); !ok || strings.TrimSpace(out) != "" {
		t.Errorf("go vet after apply: clean=%v\n%s", ok, out)
	}
}
