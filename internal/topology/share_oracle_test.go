package topology

import (
	"fmt"
	"math"
	"testing"

	"mapsched/internal/sim"
)

// ProspectiveRate is the walk-the-path reference for the stored link
// shares: the max-min share a new flow on path would receive, the
// minimum over path links of capacity/(flows+1), computed from link
// occupancy at the time of the call. Cluster.PathRate must
// equal it bit for bit on every path.
func (n *FlowNet) ProspectiveRate(path []LinkID) float64 {
	rate := math.Inf(1)
	for _, l := range path {
		r := n.links[l].capacity / float64(len(n.links[l].flows)+1)
		if r < rate {
			rate = r
		}
	}
	if math.IsInf(rate, 1) {
		return 0
	}
	return rate
}

// checkStoredShares compares Cluster.PathRate on every ordered node pair
// with the path-walking ProspectiveRate.
func checkStoredShares(t *testing.T, c *Cluster, when string) {
	t.Helper()
	for a := NodeID(0); int(a) < c.Size(); a++ {
		for b := NodeID(0); int(b) < c.Size(); b++ {
			want := c.spec.DiskBps
			if a != b {
				want = c.net.ProspectiveRate(c.path(a, b))
			}
			if got := c.PathRate(a, b); got != want {
				t.Fatalf("%s: PathRate(%d, %d) = %v, path walk gives %v", when, a, b, got, want)
			}
		}
	}
}

// TestStoredSharesMatchProspectiveRate drives random churn on one-rack,
// multi-rack and singleton-rack clusters: flow starts, completions and
// cancels, persistent cross traffic and host-link factors including 0 (a
// severed link). After every step, both before
// the commit (mid-event) and after Flush, PathRate must equal the path
// walk on every pair; a completion is also checked inside its own event.
func TestStoredSharesMatchProspectiveRate(t *testing.T) {
	for _, shape := range []struct{ racks, perRack int }{{1, 12}, {4, 3}, {12, 1}} {
		shape := shape
		t.Run(fmt.Sprintf("%dx%d", shape.racks, shape.perRack), func(t *testing.T) {
			eng := sim.NewEngine()
			spec := DefaultSpec()
			spec.Racks, spec.NodesPerRack = shape.racks, shape.perRack
			spec.TorUplinkBps = 300e6 // low enough that core links bind
			c := mustCluster(t, eng, spec)
			rng := sim.NewRNG(int64(100*shape.racks + shape.perRack))
			n := c.Size()
			pair := func() (NodeID, NodeID) {
				a := NodeID(rng.Intn(n))
				b := NodeID(rng.Intn(n - 1))
				if b >= a {
					b++
				}
				return a, b
			}
			var live []*Flow
			finishes := 0
			for step := 0; step < 600; step++ {
				switch rng.Intn(7) {
				case 0, 1, 2:
					a, b := pair()
					live = append(live, c.Transfer(a, b, rng.Uniform(1e6, 5e7), func() {
						finishes++
						checkStoredShares(t, c, fmt.Sprintf("step %d: inside a completion", step))
					}))
				case 3:
					a, b := pair()
					live = append(live, c.InjectCrossTraffic(a, b))
				case 4:
					if len(live) > 0 {
						k := rng.Intn(len(live))
						c.Net().Cancel(live[k])
						live = append(live[:k], live[k+1:]...)
					}
				case 5:
					factors := []float64{0, 0.25, 0.5, 1, 1}
					c.SetHostLinkFactor(NodeID(rng.Intn(n)), factors[rng.Intn(len(factors))])
				case 6:
					eng.Step()
				}
				checkStoredShares(t, c, fmt.Sprintf("step %d: mid-event", step))
				c.Net().Flush()
				checkStoredShares(t, c, fmt.Sprintf("step %d: after Flush", step))
			}
			if finishes == 0 {
				t.Fatal("no flow completed: the churn never exercised finish")
			}
		})
	}
}
