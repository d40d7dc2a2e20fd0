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
	d.mapCost = directMapCost{d.cost}
	return ReferenceDecider{d}
}

// directMapCost evaluates Formula 1 straight from the cost model.
type directMapCost struct{ cm *core.CostModel }

func (c directMapCost) Cost(m *job.MapTask, i topology.NodeID) float64 { return c.cm.MapCost(m, i) }

func (c directMapCost) CostAvg(m *job.MapTask, a core.Avail) float64 {
	return c.cm.MapCostAvg(m, a.Nodes)
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
