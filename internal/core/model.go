package core

import (
	"fmt"
	"math"
)

// ProbabilityModel maps a (C_avg, C) cost pair to an assignment
// probability. The paper uses the exponential model of Formula 4 and
// leaves "various probabilistic computation models ... and their impacts
// on the job performance" as future work (Section V); the additional
// models here implement that exploration.
//
// Every model must satisfy the paper's qualitative contract:
// P ∈ [0, 1], P = 1 when C = 0 (data-local), non-decreasing in C_avg and
// non-increasing in C. Prob must also be pure, a function of (avg, cost)
// alone: selection ranks candidates by saving and calls Prob once per
// selected candidate, not once per candidate scanned, so a model with
// state or side effects would see a different call sequence than the
// candidates suggest.
type ProbabilityModel interface {
	// Prob returns the assignment probability for a placement of cost
	// cost when the expected cost over available nodes is avg.
	Prob(avg, cost float64) float64
	// Name identifies the model in experiment output.
	Name() string
}

// Exponential is the paper's model: P = 1 − exp(−C_avg/C) (Formula 4).
type Exponential struct{}

// Name implements ProbabilityModel.
func (Exponential) Name() string { return "exponential" }

// Prob implements ProbabilityModel.
func (Exponential) Prob(avg, cost float64) float64 { return AssignProb(avg, cost) }

// Linear assigns P = min(1, C_avg/C): proportional to the cost ratio,
// saturating at the average. More permissive than the exponential model
// for placements just below average cost, harsher far above it.
type Linear struct{}

// Name implements ProbabilityModel.
func (Linear) Name() string { return "linear" }

// Prob implements ProbabilityModel.
func (Linear) Prob(avg, cost float64) float64 {
	if cost <= 0 {
		return 1
	}
	if math.IsInf(cost, 1) || avg <= 0 {
		return 0
	}
	p := avg / cost
	if p > 1 {
		return 1
	}
	return p
}

// Rational assigns P = C_avg/(C_avg + C): a smooth hyperbolic decay with
// the classic half-at-average rule, P = 1/2 at C = C_avg (the k = 1 member
// of the C_avg/(C_avg + k·C) family its name records).
type Rational struct{}

// Name implements ProbabilityModel.
func (Rational) Name() string { return "rational(k=1)" }

// Prob implements ProbabilityModel.
func (Rational) Prob(avg, cost float64) float64 {
	if cost <= 0 {
		return 1
	}
	if math.IsInf(cost, 1) || avg <= 0 {
		return 0
	}
	if math.IsInf(avg, 1) {
		return 1 // any finite cost is infinitely below average
	}
	return avg / (avg + cost)
}

// Step is the degenerate deterministic model: P = 1 when C ≤ C_avg, else
// 0. It removes the probabilistic relaxation entirely and serves as the
// harsh end of the exploration.
type Step struct{}

// Name implements ProbabilityModel.
func (Step) Name() string { return "step" }

// Prob implements ProbabilityModel.
func (Step) Prob(avg, cost float64) float64 {
	if cost <= 0 {
		return 1
	}
	if math.IsInf(cost, 1) {
		return 0
	}
	if cost <= avg {
		return 1
	}
	return 0
}

// Models lists the built-in probability models in presentation order.
func Models() []ProbabilityModel {
	return []ProbabilityModel{Exponential{}, Linear{}, Rational{}, Step{}}
}

// ValidateModel checks the qualitative contract on a sample grid; used by
// tests and by callers accepting user-supplied models.
func ValidateModel(m ProbabilityModel) error {
	if m.Prob(123, 0) != 1 {
		return fmt.Errorf("core: model %s: P(avg,0) != 1", m.Name())
	}
	grid := []float64{0.1, 0.5, 1, 2, 5, 10, 100}
	for _, avg := range grid {
		prev := math.Inf(1)
		for _, cost := range grid {
			p := m.Prob(avg, cost)
			if p < 0 || p > 1 {
				return fmt.Errorf("core: model %s: P(%v,%v) = %v outside [0,1]", m.Name(), avg, cost, p)
			}
			if p > prev+1e-12 {
				return fmt.Errorf("core: model %s: P increasing in cost at (%v,%v)", m.Name(), avg, cost)
			}
			prev = p
		}
	}
	for _, cost := range grid {
		prev := -1.0
		for _, avg := range grid {
			p := m.Prob(avg, cost)
			if p < prev-1e-12 {
				return fmt.Errorf("core: model %s: P decreasing in avg at (%v,%v)", m.Name(), avg, cost)
			}
			prev = p
		}
	}
	return nil
}
