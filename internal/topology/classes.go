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
	of   []int       // node -> class index
	d    [][]float64 // class x class distances, see above
	size []int       // members per class
}

// Num returns the number of classes.
func (c *Classes) Num() int { return len(c.d) }

// Of returns the class index of node n.
func (c *Classes) Of(n NodeID) int { return c.of[n] }

// D returns the distance from a member of class a to any other member of
// class b (+Inf on the diagonal of a singleton class).
func (c *Classes) D(a, b int) float64 { return c.d[a][b] }

// Size returns the number of nodes in class a.
func (c *Classes) Size(a int) int { return c.size[a] }

// ClassedNetwork is implemented by networks whose static distance matrix
// collapses into equivalence classes. Classes may return nil when no
// consistent class structure exists (then per-node computation applies).
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
	cl := &Classes{
		of:   make([]int, c.n),
		d:    make([][]float64, racks),
		size: make([]int, racks),
	}
	for i := 0; i < c.n; i++ {
		cl.of[i] = c.Rack(NodeID(i))
		cl.size[cl.of[i]]++
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

// Classes derives the equivalence classes of the distance matrix on first
// use and memoizes the outcome; it returns nil when the matrix does not
// collapse (see DeriveClasses).
func (m *Matrix) Classes() *Classes {
	if !m.classTried {
		m.classes, _ = DeriveClasses(m)
		m.classTried = true
	}
	return m.classes
}

// DeriveClasses groups a network's nodes into equivalence classes by their
// distance profiles and verifies the grouping exhaustively: for every pair
// of distinct nodes the matrix entry must be positive and must equal the
// class-level distance in the matching direction. ok is false when the
// matrix has no consistent class structure (distinct intra-class
// distances, a zero or asymmetric profile entry) — callers then fall back
// to per-node computation. The derivation is O(n²·classes) and intended
// for construction time, not hot paths.
func DeriveClasses(net Network) (*Classes, bool) {
	n := net.Size()
	of := make([]int, n)
	var reps []NodeID // first member of each class, in node order
	for i := 0; i < n; i++ {
		ci := -1
		for k := 0; k < len(reps); k++ {
			if sameClass(net, NodeID(i), reps[k]) {
				ci = k
				break
			}
		}
		if ci < 0 {
			ci = len(reps)
			reps = append(reps, NodeID(i))
		}
		of[i] = ci
	}
	cl := &Classes{of: of, d: make([][]float64, len(reps)), size: make([]int, len(reps))}
	for i := 0; i < n; i++ {
		cl.size[of[i]]++
	}
	for a := range reps {
		row := make([]float64, len(reps))
		for b := range reps {
			if a == b {
				row[b] = intraDistance(net, of, a)
			} else {
				row[b] = net.Distance(reps[a], reps[b])
			}
		}
		cl.d[a] = row
	}
	// Exhaustive verification: the class matrix must reproduce every
	// pairwise distance, and distinct nodes must never be at distance <= 0.
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			if i == k {
				continue
			}
			want := cl.d[of[i]][of[k]]
			got := net.Distance(NodeID(i), NodeID(k))
			if got <= 0 || got != want {
				return nil, false
			}
		}
	}
	return cl, true
}

// sameClass reports whether a and b have interchangeable distance
// profiles: symmetric positive distance to each other and identical
// distances (both directions) to every third node.
func sameClass(net Network, a, b NodeID) bool {
	if d := net.Distance(a, b); d <= 0 || d != net.Distance(b, a) {
		return false
	}
	n := net.Size()
	for k := 0; k < n; k++ {
		c := NodeID(k)
		if c == a || c == b {
			continue
		}
		if net.Distance(a, c) != net.Distance(b, c) || net.Distance(c, a) != net.Distance(c, b) {
			return false
		}
	}
	return true
}

// intraDistance returns the distance between two distinct members of class
// a, or +Inf for a singleton class.
func intraDistance(net Network, of []int, a int) float64 {
	first := NodeID(-1)
	for i := range of {
		if of[i] != a {
			continue
		}
		if first < 0 {
			first = NodeID(i)
			continue
		}
		return net.Distance(first, NodeID(i))
	}
	return math.Inf(1)
}
