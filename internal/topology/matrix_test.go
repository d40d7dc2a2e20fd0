package topology

import (
	"fmt"
	"math"

	"mapsched/internal/sim"
)

// Matrix is a test topology defined directly by a distance matrix H, as in
// the worked example of Fig. 2 of the paper. It transfers at a flat
// per-pair bandwidth without contention. Its class derivation is the
// generic oracle the closed-form Cluster.Classes is checked against.
type Matrix struct {
	h     [][]float64
	racks []int
	eng   *sim.Engine
	bps   float64
	disk  float64

	classes    *Classes // memoized class derivation (nil when none exists)
	classTried bool
}

// NewMatrix builds a Matrix topology. h must be square with a zero
// diagonal and non-negative entries. racks assigns each node to a rack;
// pass nil to place every node in rack 0. bps is the point-to-point
// transfer bandwidth (bytes/second) and diskBps the local read bandwidth.
func NewMatrix(eng *sim.Engine, h [][]float64, racks []int, bps, diskBps float64) (*Matrix, error) {
	n := len(h)
	if n == 0 {
		return nil, fmt.Errorf("topology: empty distance matrix")
	}
	for i, row := range h {
		if len(row) != n {
			return nil, fmt.Errorf("topology: row %d has %d entries, want %d", i, len(row), n)
		}
		if row[i] != 0 {
			return nil, fmt.Errorf("topology: diagonal entry h[%d][%d] = %v, want 0", i, i, row[i])
		}
		for j, v := range row {
			if v < 0 {
				return nil, fmt.Errorf("topology: h[%d][%d] = %v is negative", i, j, v)
			}
		}
	}
	if racks == nil {
		racks = make([]int, n)
	}
	if len(racks) != n {
		return nil, fmt.Errorf("topology: %d rack labels for %d nodes", len(racks), n)
	}
	if bps <= 0 || diskBps <= 0 {
		return nil, fmt.Errorf("topology: bandwidths must be positive (bps=%v disk=%v)", bps, diskBps)
	}
	return &Matrix{h: h, racks: racks, eng: eng, bps: bps, disk: diskBps}, nil
}

// Size returns the number of nodes.
func (m *Matrix) Size() int { return len(m.h) }

// Distance returns h[a][b].
func (m *Matrix) Distance(a, b NodeID) float64 { return m.h[a][b] }

// Rack returns the rack label of node a.
func (m *Matrix) Rack(a NodeID) int { return m.racks[a] }

// Transfer completes after bytes/rate seconds with no contention model:
// the flat bandwidth between nodes, the disk bandwidth for src == dst.
func (m *Matrix) Transfer(src, dst NodeID, bytes float64, done func()) *Flow {
	rate := m.bps
	if src == dst {
		rate = m.disk
	}
	if bytes < 0 {
		bytes = 0
	}
	f := &Flow{remaining: bytes, rate: rate, lastUpdate: m.eng.Now()}
	m.eng.After(bytes/rate, func() {
		f.finished = true
		f.remaining = 0
		if done != nil {
			done()
		}
	})
	return f
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
	cl := &Classes{of: of, d: make([][]float64, len(reps))}
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
