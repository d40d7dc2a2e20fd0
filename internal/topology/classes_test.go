package topology

import (
	"math"
	"testing"

	"mapsched/internal/sim"
)

// Size returns the number of nodes in class a.
func (c *Classes) Size(a int) int {
	n := 0
	for _, o := range c.of {
		if o == a {
			n++
		}
	}
	return n
}

// TestClusterClassesAreRacks pins the hierarchical topology's class
// structure: one class per rack, SameRackDist on the diagonal,
// CrossRackDist elsewhere, and membership matching Rack().
func TestClusterClassesAreRacks(t *testing.T) {
	spec := DefaultSpec()
	spec.Racks = 3
	spec.NodesPerRack = 4
	c, err := NewCluster(sim.NewEngine(), spec)
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Classes()
	if cl == nil || cl.Num() != 3 {
		t.Fatalf("Classes() = %v, want 3 classes", cl)
	}
	for i := 0; i < c.Size(); i++ {
		if cl.Of(NodeID(i)) != c.Rack(NodeID(i)) {
			t.Fatalf("node %d in class %d but rack %d", i, cl.Of(NodeID(i)), c.Rack(NodeID(i)))
		}
	}
	for a := 0; a < cl.Num(); a++ {
		if cl.Size(a) != 4 {
			t.Fatalf("class %d size %d, want 4", a, cl.Size(a))
		}
		for b := 0; b < cl.Num(); b++ {
			want := spec.CrossRackDist
			if a == b {
				want = spec.SameRackDist
			}
			if cl.D(a, b) != want {
				t.Fatalf("D(%d,%d) = %v, want %v", a, b, cl.D(a, b), want)
			}
		}
	}
	if c.Classes() != cl {
		t.Fatal("Classes() not memoized")
	}
}

// TestClusterClassesSingletonRacks pins the singleton-class convention:
// with one node per rack no intra-class pair exists, so the diagonal is
// +Inf.
func TestClusterClassesSingletonRacks(t *testing.T) {
	spec := DefaultSpec()
	spec.Racks = 3
	spec.NodesPerRack = 1
	c, err := NewCluster(sim.NewEngine(), spec)
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Classes()
	for a := 0; a < cl.Num(); a++ {
		if !math.IsInf(cl.D(a, a), 1) {
			t.Fatalf("singleton intra-distance D(%d,%d) = %v, want +Inf", a, a, cl.D(a, a))
		}
	}
}

// TestDeriveClassesMatchesCluster cross-checks the generic O(n²·classes)
// derivation against the closed-form rack structure.
func TestDeriveClassesMatchesCluster(t *testing.T) {
	spec := DefaultSpec()
	spec.Racks = 2
	spec.NodesPerRack = 3
	c, err := NewCluster(sim.NewEngine(), spec)
	if err != nil {
		t.Fatal(err)
	}
	derived, ok := DeriveClasses(c)
	if !ok {
		t.Fatal("rack topology did not derive classes")
	}
	direct := c.Classes()
	if derived.Num() != direct.Num() {
		t.Fatalf("derived %d classes, direct %d", derived.Num(), direct.Num())
	}
	for i := 0; i < c.Size(); i++ {
		if derived.Of(NodeID(i)) != direct.Of(NodeID(i)) {
			t.Fatalf("node %d: derived class %d, direct %d", i, derived.Of(NodeID(i)), direct.Of(NodeID(i)))
		}
	}
	for a := 0; a < direct.Num(); a++ {
		for b := 0; b < direct.Num(); b++ {
			if derived.D(a, b) != direct.D(a, b) {
				t.Fatalf("D(%d,%d): derived %v, direct %v", a, b, derived.D(a, b), direct.D(a, b))
			}
		}
	}
}

// TestMatrixClassesCollapse feeds a rack-shaped explicit matrix through
// Matrix.Classes and checks it collapses to the two racks (memoized).
func TestMatrixClassesCollapse(t *testing.T) {
	h := [][]float64{
		{0, 2, 4, 4},
		{2, 0, 4, 4},
		{4, 4, 0, 2},
		{4, 4, 2, 0},
	}
	m, err := NewMatrix(sim.NewEngine(), h, []int{0, 0, 1, 1}, 100e6, 400e6)
	if err != nil {
		t.Fatal(err)
	}
	cl := m.Classes()
	if cl == nil || cl.Num() != 2 {
		t.Fatalf("Classes() = %v, want 2 classes", cl)
	}
	if cl.D(0, 0) != 2 || cl.D(0, 1) != 4 || cl.D(1, 1) != 2 {
		t.Fatalf("class distances wrong: intra %v/%v inter %v", cl.D(0, 0), cl.D(1, 1), cl.D(0, 1))
	}
	if m.Classes() != cl {
		t.Fatal("Matrix.Classes not memoized")
	}
}

// TestMatrixClassesIrregular pins the behaviour on matrices without rack
// structure: an irregular matrix still derives (possibly singleton)
// classes whenever every pairwise distance is reproduced — the Fig. 2
// example collapses to {D1, D3} plus two singletons, since D1 and D3 have
// identical profiles — while a zero distance between distinct nodes
// (co-located endpoints, which would break the data-local shortcut) must
// yield nil so consumers fall back to per-node computation.
func TestMatrixClassesIrregular(t *testing.T) {
	h := [][]float64{
		{0, 10, 2, 6},
		{10, 0, 10, 4},
		{2, 10, 0, 6},
		{6, 4, 6, 0},
	}
	m, err := NewMatrix(sim.NewEngine(), h, nil, 100e6, 400e6)
	if err != nil {
		t.Fatal(err)
	}
	cl := m.Classes()
	if cl == nil || cl.Num() != 3 {
		t.Fatalf("fig2 matrix classes = %v, want 3 (D1+D3 merged)", cl)
	}
	if cl.Of(0) != cl.Of(2) || cl.Of(1) == cl.Of(3) || cl.Of(0) == cl.Of(1) {
		t.Fatalf("fig2 grouping wrong: of = [%d %d %d %d]", cl.Of(0), cl.Of(1), cl.Of(2), cl.Of(3))
	}
	// The derived matrix must reproduce every pairwise distance.
	for i := 0; i < 4; i++ {
		for k := 0; k < 4; k++ {
			if i == k {
				continue
			}
			if got := cl.D(cl.Of(NodeID(i)), cl.Of(NodeID(k))); got != h[i][k] {
				t.Fatalf("class distance %d→%d = %v, want %v", i, k, got, h[i][k])
			}
		}
	}

	zero := [][]float64{
		{0, 0, 4, 4}, // nodes 0 and 1 at distance 0: no valid classes
		{0, 0, 4, 4},
		{4, 4, 0, 2},
		{4, 4, 2, 0},
	}
	zm, err := NewMatrix(sim.NewEngine(), zero, nil, 100e6, 400e6)
	if err != nil {
		t.Fatal(err)
	}
	if cl := zm.Classes(); cl != nil {
		t.Fatalf("zero-distance matrix produced classes: %v", cl)
	}
}
