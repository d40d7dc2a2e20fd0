package topology

import "math"

// Classes is the equivalence-class view of a static distance matrix: nodes
// a and b are in one class when they are interchangeable for the cost
// formulas — every other node sees them at identical distances (in both
// directions) and they sit at a common positive intra-class distance. For
// the hierarchical Cluster topology the classes are exactly the racks, so
// sums over thousands of nodes collapse to a handful of per-class terms
// (compare Gupta & Lalitha's rack-level cost collapse and Zhao et al.'s
// per-locality-class aggregation).
//
// The d matrix is directional: d[a][b] is the distance from any member of
// class a to any *other* member of class b. The diagonal d[c][c] is the
// intra-class distance; for a singleton class it is +Inf, since no second
// member exists — consumers must skip classes whose effective member count
// is zero before multiplying, so the infinity never meets a zero.
type Classes struct {
	of []int       // node -> class index
	d  [][]float64 // class x class distances, see above
}

// Num returns the number of classes.
func (c *Classes) Num() int { return len(c.d) }

// Of returns the class index of node n.
func (c *Classes) Of(n NodeID) int { return c.of[n] }

// D returns the distance from a member of class a to any other member of
// class b (+Inf on the diagonal of a singleton class).
func (c *Classes) D(a, b int) float64 { return c.d[a][b] }

// ClassedNetwork is implemented by networks whose static distance matrix
// collapses into equivalence classes. Classes never returns nil; a network
// without a class structure does not implement the interface, and cost
// consumers then compute per node.
type ClassedNetwork interface {
	Network
	Classes() *Classes
}

// Classes returns the rack-level class structure of the hierarchical
// topology: every rack is one class, with SameRackDist inside a rack and
// CrossRackDist between racks. The result is built once and memoized.
func (c *Cluster) Classes() *Classes {
	if c.classes != nil {
		return c.classes
	}
	racks := c.spec.Racks
	cl := &Classes{of: make([]int, c.n), d: make([][]float64, racks)}
	for i := 0; i < c.n; i++ {
		cl.of[i] = c.Rack(NodeID(i))
	}
	intra := c.spec.SameRackDist
	if c.spec.NodesPerRack == 1 {
		intra = math.Inf(1) // singleton racks have no second member
	}
	for r := 0; r < racks; r++ {
		row := make([]float64, racks)
		for s := 0; s < racks; s++ {
			if r == s {
				row[s] = intra
			} else {
				row[s] = c.spec.CrossRackDist
			}
		}
		cl.d[r] = row
	}
	c.classes = cl
	return cl
}
