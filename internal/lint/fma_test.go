package lint_test

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// fmaArches are the architectures whose gc backend fuses x*y + z into one
// multiply-add with a single rounding; amd64 never does.
var fmaArches = []string{"arm64", "ppc64le", "s390x", "riscv64"}

var (
	fusedOpcode = regexp.MustCompile(`\t(FMADD|FMSUB|FNMADD|FNMSUB)\w*\t`)
	asmPosition = regexp.MustCompile(`\((\S+\.go):\d+\)`)
)

// TestNoFusedMultiplyAdd keeps every package of the module rounding each
// float product before it is added, so that every sum (the ones feeding
// placement decisions, the workloads they serve and the figures reported
// on them) is bit-identical on every GOARCH. It cross-compiles ./... for
// every fusing architecture with an assembly listing of the module's
// packages and fails on any fused multiply-add whose source position lies
// in the module. Standard-library code inlined into them keeps its own
// position, so it is not flagged here. The fix for a finding is an
// explicit conversion, float64(x*y) + z, which forces the product's
// rounding.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the module for four architectures")
	}
	root, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	moduleDir := strings.TrimSpace(string(root))
	list := exec.Command("go", "list", "-f", "{{.Dir}}", "./...")
	list.Dir = moduleDir
	dirs, err := list.Output()
	if err != nil {
		t.Fatalf("go list ./...: %v", err)
	}
	var packages []string
	for _, dir := range strings.Fields(string(dirs)) {
		rel, err := filepath.Rel(moduleDir, dir)
		if err != nil {
			t.Fatal(err)
		}
		packages = append(packages, filepath.ToSlash(rel))
	}
	args := []string{"build", "-gcflags=mapsched/...=-S", "./..."}

	for _, arch := range fmaArches {
		cmd := exec.Command("go", args...)
		cmd.Dir = moduleDir
		cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=%s go %s: %v\n%s", arch, strings.Join(args, " "), err, out)
		}
		listed := map[string]bool{}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			line := sc.Text()
			pos := asmPosition.FindStringSubmatch(line)
			if pos == nil {
				continue
			}
			file := strings.TrimPrefix(filepath.ToSlash(pos[1]), filepath.ToSlash(moduleDir)+"/")
			file = strings.TrimPrefix(file, "mapsched/") // a -trimpath build
			pkg := filepath.ToSlash(filepath.Dir(file))
			listed[pkg] = true
			if fusedOpcode.MatchString(line) && slices.Contains(packages, pkg) {
				t.Errorf("GOARCH=%s: fused multiply-add in %s: %s", arch, pkg, strings.TrimSpace(line))
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("GOARCH=%s: reading the listing: %v", arch, err)
		}
		for _, pkg := range packages {
			if !listed[pkg] {
				t.Errorf("GOARCH=%s: the listing has no instruction from %s; is the -gcflags pattern stale?", arch, pkg)
			}
		}
	}
}
