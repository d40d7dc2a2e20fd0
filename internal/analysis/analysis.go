// Package analysis provides the theoretical performance analysis the
// paper defers to future work (Section V): closed-form expressions for
// the expected placement cost, the expected number of slot offers a task
// declines before being assigned, and the starvation threshold of the
// P_min gate, all under the offer process the simulator implements.
//
// Model: a task faces candidate placements with costs C_1..C_n (one per
// node with a free slot). Offers arrive from nodes uniformly at random;
// an offer from node i is accepted with probability P_i = M(C_avg, C_i)
// gated by P_min (P_i := 0 when below the threshold). The process is a
// sequence of independent trials with acceptance probability
// p̄ = Σ P_i / n per offer, and conditional on acceptance the chosen node
// is i with probability P_i / Σ P_j.
package analysis

import (
	"fmt"
	"math"

	"mapsched/internal/core"
)

// Acceptance holds the per-node acceptance probabilities of a task under
// a probability model and threshold.
type Acceptance struct {
	Costs []float64 // candidate placement costs C_i
	Avg   float64   // C_avg = mean of Costs
	Probs []float64 // P_i after the P_min gate (0 when below it)
}

// Accept computes the per-node acceptance probabilities for the given
// candidate costs under model m and threshold pmin.
func Accept(costs []float64, m core.ProbabilityModel, pmin float64) (Acceptance, error) {
	if len(costs) == 0 {
		return Acceptance{}, fmt.Errorf("analysis: no candidate costs")
	}
	if m == nil {
		m = core.Exponential{}
	}
	var sum float64
	for _, c := range costs {
		if c < 0 || math.IsNaN(c) {
			return Acceptance{}, fmt.Errorf("analysis: invalid cost %v", c)
		}
		sum += c
	}
	avg := sum / float64(len(costs))
	a := Acceptance{Costs: append([]float64(nil), costs...), Avg: avg}
	a.Probs = make([]float64, len(costs))
	for i, c := range costs {
		p := m.Prob(avg, c)
		if p < pmin {
			p = 0
		}
		a.Probs[i] = p
	}
	return a, nil
}

// MeanAcceptance returns p̄ = Σ P_i / n: the per-offer acceptance
// probability of the uniform offer process.
func (a Acceptance) MeanAcceptance() float64 {
	var s float64
	for _, p := range a.Probs {
		s += p
	}
	return s / float64(len(a.Probs))
}

// ExpectedOffers returns the expected number of offers until assignment,
// n / Σ P_i (geometric with success probability p̄). It is +Inf when every
// candidate is gated away — the starvation regime the paper's P_min
// tuning probes.
func (a Acceptance) ExpectedOffers() float64 {
	pbar := a.MeanAcceptance()
	if pbar <= 0 {
		return math.Inf(1)
	}
	return 1 / pbar
}

// ExpectedCost returns E[C | assigned] = Σ P_i·C_i / Σ P_i: the mean
// transmission cost of the placement the probabilistic rule converges to.
// It is NaN when the task starves.
func (a Acceptance) ExpectedCost() float64 {
	var num, den float64
	for i, p := range a.Probs {
		num += float64(p * a.Costs[i])
		den += p
	}
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// Saving returns the fractional expected-cost reduction of the
// probabilistic rule relative to uniform random assignment:
// (C_avg − E[C]) / C_avg. Zero average cost yields 0.
func (a Acceptance) Saving() float64 {
	if a.Avg == 0 {
		return 0
	}
	ec := a.ExpectedCost()
	if math.IsNaN(ec) {
		return 0
	}
	return (a.Avg - ec) / a.Avg
}

// StarvationPmin returns the largest P_min under which the task can still
// be assigned at all: max_i M(C_avg, C_i). Thresholds above it gate every
// candidate away. For a uniform cost vector under the exponential model
// this is 1 − e^{-1} ≈ 0.632, matching the breakpoint the P_min sweep
// experiment observes.
func StarvationPmin(costs []float64, m core.ProbabilityModel) (float64, error) {
	a, err := Accept(costs, m, 0)
	if err != nil {
		return 0, err
	}
	var best float64
	for _, p := range a.Probs {
		if p > best {
			best = p
		}
	}
	return best, nil
}

// TradeoffPoint is one (P_min → outcome) sample of the cost/delay
// trade-off curve.
type TradeoffPoint struct {
	Pmin           float64
	ExpectedCost   float64 // NaN when starved
	ExpectedOffers float64 // +Inf when starved
	Saving         float64 // vs uniform random assignment
}

// TradeoffCurve evaluates the probabilistic rule across thresholds: as
// P_min rises the expected cost falls (bad nodes are gated away) while
// the expected assignment delay rises — the balance Section II-C argues
// for.
func TradeoffCurve(costs []float64, m core.ProbabilityModel, pmins []float64) ([]TradeoffPoint, error) {
	out := make([]TradeoffPoint, 0, len(pmins))
	for _, pm := range pmins {
		a, err := Accept(costs, m, pm)
		if err != nil {
			return nil, err
		}
		out = append(out, TradeoffPoint{
			Pmin:           pm,
			ExpectedCost:   a.ExpectedCost(),
			ExpectedOffers: a.ExpectedOffers(),
			Saving:         a.Saving(),
		})
	}
	return out, nil
}
