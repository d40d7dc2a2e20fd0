package core

import (
	"math"

	"mapsched/internal/job"
	"mapsched/internal/topology"
)

// AssignProb computes the paper's placement probability (Formulas 4–5):
//
//	P = 1 − exp(−C_avg / C)
//
// where C is the cost of the candidate placement and C_avg the expected
// cost of assigning the task uniformly over currently available nodes.
// A zero-cost placement (data-local) has probability 1; an infinitely
// expensive one probability 0. When both C_avg and C are zero — every
// available node is equally free — the placement is also certain.
func AssignProb(avg, cost float64) float64 {
	if cost <= 0 {
		return 1
	}
	if math.IsInf(cost, 1) {
		return 0
	}
	if avg <= 0 {
		return 0
	}
	return 1 - math.Exp(-avg/cost)
}

// Choice is the outcome of the candidate-selection step of Algorithms 1–2.
type Choice struct {
	MapTask    *job.MapTask    // set for map selection
	ReduceTask *job.ReduceTask // set for reduce selection
	Prob       float64         // P_mj or P_rf under the configured model
	Cost       float64         // C on the offered node
	AvgCost    float64         // C_avg over available nodes
}

// Saving is the absolute transmission-cost saving of placing the task here
// rather than uniformly at random: C_avg − C. Section II-C selects "the
// map task that leads to the maximum transmission cost saving by assigning
// it instantly to D_i than assigning it to other nodes"; unlike the
// probability (whose C_avg/C ratio is scale-invariant in the data volume),
// the saving weights large tasks more, so heavy partitions launch early
// instead of straggling at the tail.
func (c Choice) Saving() float64 { return c.AvgCost - c.Cost }

// MapSelection is the result of scanning one job's pending maps for a
// slot offer: the maximum-saving candidate overall, plus the
// maximum-saving candidate among the zero-cost (data-local) ones. The two
// differ whenever a large remote task out-saves a small local one
// (C_avg − C ranks by absolute bytes moved); Algorithm 1's P = 1 rule
// still applies to the local candidate, so the scheduler falls back to it
// when Best is gated away.
type MapSelection struct {
	Best  Choice
	Local Choice
}

// HasLocal reports whether a zero-cost candidate was found.
func (s MapSelection) HasLocal() bool { return s.Local.MapTask != nil }

// MapCostEvaluator is Formula 1 as Algorithm 1 reads it. *CostModel is
// the one production implementation; the interface exists so tests can
// run the selection against an uncached reference computation.
type MapCostEvaluator interface {
	// MapCosts returns C_m(i,j), the cost of running m on node i, and,
	// when that is finite, C_avg over the nodes with free map slots. avg
	// is not computed, and may be anything, when cost is +Inf.
	MapCosts(m *job.MapTask, i topology.NodeID, avail Avail) (cost, avg float64)
}

// SelectMapTaskWith runs lines 2–9 of Algorithm 1: for every candidate map
// task it computes the placement cost on node i (Formula 1) and the
// average cost over nodes with free map slots, and returns the candidate
// with the largest transmission-cost saving plus the best data-local
// candidate (which Best need not subsume: a large remote task can
// out-save a small local one). Ties on saving go to the earlier task, for
// determinism. Selection reads only the saving, so the probability under
// model (Exponential is Formula 4) is computed once per returned
// candidate, after the scan. ok is false when tasks is empty or no
// candidate is schedulable.
func SelectMapTaskWith(ev MapCostEvaluator, model ProbabilityModel, tasks []*job.MapTask, i topology.NodeID, avail Avail) (sel MapSelection, ok bool) {
	for _, m := range tasks {
		cost, avg := ev.MapCosts(m, i, avail)
		if math.IsInf(cost, 1) {
			continue
		}
		c := Choice{MapTask: m, Cost: cost, AvgCost: avg}
		s := c.Saving()
		if !ok || s > sel.Best.Saving() {
			sel.Best, ok = c, true
		}
		if cost == 0 && (!sel.HasLocal() || s > sel.Local.Saving()) {
			sel.Local = c
		}
	}
	if ok {
		sel.Best.Prob = model.Prob(sel.Best.AvgCost, sel.Best.Cost)
	}
	if sel.HasLocal() {
		sel.Local.Prob = model.Prob(sel.Local.AvgCost, sel.Local.Cost)
	}
	return sel, ok
}

// SelectReduceTask runs lines 2–10 of Algorithm 2: for every candidate
// reduce task it computes the shuffle cost on node i (Formula 3 with the
// estimator's Î_jf) and the average over nodes with free reduce slots,
// and returns the candidate with the largest transmission-cost saving,
// with its probability under model (Exponential is Formula 5) computed
// once, after the scan. Unreachable placements (infinite cost, e.g.
// after a link sever) are skipped, exactly as in map selection — a −Inf
// saving must not become a job's "best" and mask schedulable
// candidates. ok is false when tasks is empty or every placement is
// unreachable.
func SelectReduceTask(rc *ReduceCoster, model ProbabilityModel, tasks []*job.ReduceTask, i topology.NodeID, avail Avail) (best Choice, ok bool) {
	for _, r := range tasks {
		cost := rc.Cost(i, r.Index)
		if math.IsInf(cost, 1) {
			continue
		}
		avg := rc.CostAvg(r.Index, avail)
		c := Choice{ReduceTask: r, Cost: cost, AvgCost: avg}
		if !ok || c.Saving() > best.Saving() {
			best = c
			ok = true
		}
	}
	if ok {
		best.Prob = model.Prob(best.AvgCost, best.Cost)
	}
	return best, ok
}
