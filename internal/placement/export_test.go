package placement

import (
	"math"
	"slices"

	"mapsched/internal/core"
	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/obs"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
)

// ReferenceDecider is the uncached reference the production Decider must
// match decision for decision: map costs are recomputed from the replica
// lists on every call, never read from the cost model's block rows, and
// a stale reduce coster is rebuilt from scratch instead of refreshed.
type ReferenceDecider struct{ *Decider }

// NewReferenceDecider opens a reference session against svc.
func NewReferenceDecider(svc *Service, cfg Config, rng *sim.RNG, stream *obs.Stream) ReferenceDecider {
	d := NewDecider(svc, cfg, rng, stream)
	d.mapCost = directMapCost{d.cost, svc.net, svc.store, d.Mode() == core.ModeHops}
	return ReferenceDecider{d}
}

// directMapCost evaluates Formula 1 without the cost model's rows.
// MapCosts composes MapCost and MapCostAvg, the per-call computations
// below. MapCost finds the nearest replica on every call. In
// network-condition mode C_avg is Formula 1 as written, MapCost summed
// per avail node in node order, independent of the rack-factored form
// core.CostModel.MapCostAvg computes. In hop mode it is rebuilt from the
// replica list as Σ_r n'_r · minD_r in rack order, the rack-collapsed
// reordering production uses (checked against the per-node sum in
// internal/core), so the two agree bit for bit.
type directMapCost struct {
	cm    *core.CostModel
	net   *topology.Cluster
	store *hdfs.Store
	hops  bool
}

func (c directMapCost) MapCosts(m *job.MapTask, i topology.NodeID, a core.Avail) (cost, avg float64) {
	if cost = c.MapCost(m, i); math.IsInf(cost, 1) {
		return cost, 0
	}
	return cost, c.MapCostAvg(m, a)
}

func (c directMapCost) MapCost(m *job.MapTask, i topology.NodeID) float64 {
	best := math.Inf(1)
	for _, l := range c.store.Replicas(m.Block) {
		best = min(best, c.cm.Distance(i, l))
	}
	if math.IsInf(best, 1) {
		return math.Inf(1)
	}
	return m.Size * best
}

func (c directMapCost) MapCostAvg(m *job.MapTask, a core.Avail) float64 {
	nodes := members(a.Nodes)
	if len(nodes) == 0 {
		return 0
	}
	var sum float64
	if c.hops {
		counts := make([]int, c.net.Racks())
		for _, k := range nodes {
			counts[c.net.Rack(k)]++
		}
		replicas := c.store.Replicas(m.Block)
		for r, n := range counts {
			minD := math.Inf(1)
			for _, l := range replicas {
				minD = min(minD, c.net.RackDistance(r, c.net.Rack(l)))
				if c.net.Rack(l) == r && slices.Contains(nodes, l) {
					n-- // a replica node reads locally at distance 0
				}
			}
			if n > 0 {
				sum += float64(float64(n) * minD)
			}
		}
		return m.Size * sum / float64(len(nodes))
	}
	for _, k := range nodes {
		sum += c.MapCost(m, k)
	}
	return sum / float64(len(nodes))
}

// members lists a set's nodes in ascending order.
func members(set topology.NodeSet) []topology.NodeID {
	var out []topology.NodeID
	set.Each(func(k topology.NodeID) { out = append(out, k) })
	return out
}

// PlaceReduce drops every stale cached coster first, so the decision
// builds a fresh one wherever the production path would Refresh.
func (r ReferenceDecider) PlaceReduce(req *Request, node topology.NodeID) (*job.ReduceTask, Outcome) {
	for id, e := range r.costerCache {
		if float64(req.Now-e.at) >= costerMaxAge {
			delete(r.costerCache, id)
		}
	}
	return r.Decider.PlaceReduce(req, node)
}
