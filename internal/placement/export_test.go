package placement

import (
	"mapsched/internal/core"
	"mapsched/internal/job"
	"mapsched/internal/obs"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
)

// ReferenceDecider is the uncached reference the production Decider must
// match decision for decision: map costs come straight from the cost
// model, and a stale reduce coster is rebuilt from scratch instead of
// refreshed.
type ReferenceDecider struct{ *Decider }

// NewReferenceDecider opens a reference session against svc.
func NewReferenceDecider(svc *Service, cfg Config, rng *sim.RNG, stream *obs.Stream) ReferenceDecider {
	d := NewDecider(svc, cfg, rng, stream)
	d.mapCost = directMapCost{d.cost, d.Mode() == core.ModeNetworkCondition}
	return ReferenceDecider{d}
}

// directMapCost evaluates Formula 1 straight from the cost model. In
// network-condition mode C_avg is Formula 1 as written, MapCost summed
// per avail node in node order, independent of the rack-factored form
// CostModel.MapCostAvg computes. In hop mode the production sum is the
// rack-collapsed reordering (checked against the per-node sum in
// internal/core), so C_avg comes from CostModel.MapCostAvg, which
// collapses without the MapCoster's caches.
type directMapCost struct {
	cm      *core.CostModel
	perNode bool
}

func (c directMapCost) Cost(m *job.MapTask, i topology.NodeID) float64 { return c.cm.MapCost(m, i) }

func (c directMapCost) CostAvg(m *job.MapTask, a core.Avail) float64 {
	if !c.perNode {
		return c.cm.MapCostAvg(m, a)
	}
	if len(a.Nodes) == 0 {
		return 0
	}
	var sum float64
	for _, k := range a.Nodes {
		sum += c.cm.MapCost(m, k)
	}
	return sum / float64(len(a.Nodes))
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
