package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"mapsched/internal/core"
	"mapsched/internal/sim"
)

// GreedyCost returns min_i C_i — the cost an (unrealizable) oracle that
// always waits for the best node achieves.
func (a Acceptance) GreedyCost() float64 {
	best := math.Inf(1)
	for _, c := range a.Costs {
		if c < best {
			best = c
		}
	}
	return best
}

// ExpectedDelay converts ExpectedOffers into time given the mean
// inter-offer interval (heartbeat period / number of offering slots).
func (a Acceptance) ExpectedDelay(offerInterval float64) float64 {
	return a.ExpectedOffers() * offerInterval
}

func TestAcceptValidation(t *testing.T) {
	if _, err := Accept(nil, core.Exponential{}, 0.4); err == nil {
		t.Error("empty costs accepted")
	}
	if _, err := Accept([]float64{1, -2}, core.Exponential{}, 0.4); err == nil {
		t.Error("negative cost accepted")
	}
	if _, err := Accept([]float64{1, math.NaN()}, core.Exponential{}, 0.4); err == nil {
		t.Error("NaN cost accepted")
	}
	// nil model defaults to the paper's exponential model.
	a, err := Accept([]float64{1, 1}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Exp(-1)
	if math.Abs(a.Probs[0]-want) > 1e-12 {
		t.Fatalf("default model P = %v, want %v", a.Probs[0], want)
	}
}

func TestUniformCostsBreakpoint(t *testing.T) {
	// For uniform costs, every P_i = 1 - e^{-1} ≈ 0.632: the paper's
	// feasible P_min range ends there, as the sweep experiment observes.
	costs := []float64{100, 100, 100, 100}
	thr, err := StarvationPmin(costs, core.Exponential{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Exp(-1)
	if math.Abs(thr-want) > 1e-12 {
		t.Fatalf("starvation threshold = %v, want %v", thr, want)
	}
	// Below the threshold the task assigns; above it starves.
	below, err := Accept(costs, core.Exponential{}, thr-0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(below.ExpectedOffers(), 1) {
		t.Fatal("starved below the threshold")
	}
	above, err := Accept(costs, core.Exponential{}, thr+0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(above.ExpectedOffers(), 1) {
		t.Fatal("did not starve above the threshold")
	}
	if !math.IsNaN(above.ExpectedCost()) {
		t.Fatal("starved task has a finite expected cost")
	}
	if above.Saving() != 0 {
		t.Fatal("starved task reports nonzero saving")
	}
}

func TestLocalCandidateDominates(t *testing.T) {
	// A zero-cost (data-local) candidate has P = 1 and pulls the expected
	// cost below the average.
	a, err := Accept([]float64{0, 200, 200, 200}, core.Exponential{}, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Probs[0] != 1 {
		t.Fatalf("local P = %v, want 1", a.Probs[0])
	}
	if ec := a.ExpectedCost(); ec >= a.Avg {
		t.Fatalf("expected cost %v not below random %v", ec, a.Avg)
	}
	if a.Saving() <= 0 {
		t.Fatalf("saving %v, want positive", a.Saving())
	}
	if g := a.GreedyCost(); g != 0 {
		t.Fatalf("greedy cost %v, want 0", g)
	}
}

func TestExpectedCostBounds(t *testing.T) {
	// Property: min ≤ E[C] ≤ mean for any cost vector that does not starve.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		costs := make([]float64, 0, len(raw))
		for _, r := range raw {
			costs = append(costs, float64(r)+1)
		}
		a, err := Accept(costs, core.Exponential{}, 0)
		if err != nil {
			return false
		}
		ec := a.ExpectedCost()
		return ec >= a.GreedyCost()-1e-9 && ec <= a.Avg+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTradeoffMonotonicity(t *testing.T) {
	// Raising P_min can only gate away worse-than-threshold nodes: the
	// expected cost is non-increasing and the expected offer count
	// non-decreasing along the curve (until starvation).
	costs := []float64{10, 50, 100, 200, 400, 800}
	pmins := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	curve, err := TradeoffCurve(costs, core.Exponential{}, pmins)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve); i++ {
		prev, cur := curve[i-1], curve[i]
		if math.IsInf(cur.ExpectedOffers, 1) {
			break // starved tail
		}
		if cur.ExpectedCost > prev.ExpectedCost+1e-9 {
			t.Fatalf("expected cost rose from %v to %v at pmin %v",
				prev.ExpectedCost, cur.ExpectedCost, cur.Pmin)
		}
		if cur.ExpectedOffers < prev.ExpectedOffers-1e-9 {
			t.Fatalf("expected offers fell from %v to %v at pmin %v",
				prev.ExpectedOffers, cur.ExpectedOffers, cur.Pmin)
		}
	}
}

// TestMonteCarloValidation simulates the offer process and compares the
// empirical expected cost and offer count against the closed forms.
func TestMonteCarloValidation(t *testing.T) {
	costs := []float64{0, 30, 60, 120, 240, 480, 480, 960}
	for _, pmin := range []float64{0, 0.3, 0.5} {
		a, err := Accept(costs, core.Exponential{}, pmin)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(42)
		const trials = 200000
		var sumCost, sumOffers float64
		for trial := 0; trial < trials; trial++ {
			offers := 0
			for {
				offers++
				i := rng.Intn(len(costs))
				if rng.Bernoulli(a.Probs[i]) {
					sumCost += costs[i]
					break
				}
				if offers > 10000 {
					t.Fatal("Monte Carlo starved unexpectedly")
				}
			}
			sumOffers += float64(offers)
		}
		gotCost := sumCost / trials
		gotOffers := sumOffers / trials
		if math.Abs(gotCost-a.ExpectedCost()) > 0.01*a.Avg+1 {
			t.Fatalf("pmin %v: Monte Carlo cost %v vs closed form %v", pmin, gotCost, a.ExpectedCost())
		}
		if math.Abs(gotOffers-a.ExpectedOffers())/a.ExpectedOffers() > 0.02 {
			t.Fatalf("pmin %v: Monte Carlo offers %v vs closed form %v", pmin, gotOffers, a.ExpectedOffers())
		}
	}
}

func TestExpectedDelayScalesWithInterval(t *testing.T) {
	a, err := Accept([]float64{10, 20, 30}, core.Exponential{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d1, d2 := a.ExpectedDelay(1), a.ExpectedDelay(3); math.Abs(d2-3*d1) > 1e-12 {
		t.Fatalf("delay not linear in interval: %v vs %v", d1, d2)
	}
}

func TestProbabilityModelsContract(t *testing.T) {
	for _, m := range core.Models() {
		if err := core.ValidateModel(m); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
		if m.Name() == "" {
			t.Error("unnamed model")
		}
	}
}

func TestModelOrderingAtAverage(t *testing.T) {
	// At C = C_avg the models span the spectrum from permissive to harsh:
	// step (1) ≥ linear (1) ≥ exponential (0.63) ≥ rational (0.5).
	avg, cost := 100.0, 100.0
	step := core.Step{}.Prob(avg, cost)
	lin := core.Linear{}.Prob(avg, cost)
	exp := core.Exponential{}.Prob(avg, cost)
	rat := core.Rational{}.Prob(avg, cost)
	if !(step >= lin && lin >= exp && exp >= rat) {
		t.Fatalf("ordering broken: step=%v linear=%v exp=%v rational=%v", step, lin, exp, rat)
	}
	if math.Abs(exp-(1-math.Exp(-1))) > 1e-12 {
		t.Fatalf("exponential at average = %v", exp)
	}
	if math.Abs(rat-0.5) > 1e-12 {
		t.Fatalf("rational at average = %v", rat)
	}
}
