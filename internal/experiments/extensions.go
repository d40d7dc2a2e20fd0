package experiments

import (
	"fmt"
	"math"

	"mapsched/internal/analysis"
	"mapsched/internal/core"
	"mapsched/internal/engine"
	"mapsched/internal/faults"
	"mapsched/internal/metrics"
	"mapsched/internal/sched"
	"mapsched/internal/workload"
)

// ModelComparison evaluates the alternative probability models the paper
// defers to future work (Section V: "we will further explore various
// probabilistic computation models for the probability determination and
// study their impacts on the job performance") on the Wordcount batch.
func ModelComparison(s Setup) ([]AblationPoint, error) {
	models := core.Models()
	return runParallel(len(models), func(i int) (AblationPoint, error) {
		m := models[i]
		cfg := sched.DefaultProbabilisticConfig()
		cfg.Pmin = s.Pmin
		cfg.Model = m
		if m.Name() == "step" {
			// The step model gates everything above average cost; keep the
			// threshold semantics meaningful by disabling Pmin for it.
			cfg.Pmin = 0
		}
		res, err := s.runVariant(sched.NewProbabilistic(cfg))
		if err != nil {
			return AblationPoint{}, err
		}
		return pointFrom(m.Name(), res), nil
	})
}

// ExtendedComparison runs the paper's three schedulers plus the two
// related-work baselines (LARTS, Capacity) on the Wordcount batch.
func ExtendedComparison(s Setup) ([]AblationPoint, error) {
	type entry struct {
		name string
		b    sched.Builder
	}
	entries := []entry{
		{"Probabilistic", s.BuilderFor(Probabilistic)},
		{"Coupling", s.BuilderFor(Coupling)},
		{"Fair", s.BuilderFor(Fair)},
		{"LARTS", sched.NewLARTS()},
		{"Capacity", sched.NewCapacity()},
	}
	return runParallel(len(entries), func(i int) (AblationPoint, error) {
		res, err := s.runVariant(entries[i].b)
		if err != nil {
			return AblationPoint{}, fmt.Errorf("%s: %w", entries[i].name, err)
		}
		return pointFrom(entries[i].name, res), nil
	})
}

// FaultPoint is one scheduler's outcome with and without failures.
type FaultPoint struct {
	Scheduler         string
	BaselineJCT       float64
	FaultyJCT         float64
	RelaunchedMaps    int
	RelaunchedReduces int
	Unfinished        int
}

// FaultTolerance measures completion-time degradation under two node
// failures during the Wordcount batch, per scheduler. Replication is
// raised to 3 so no block can be orphaned.
func FaultTolerance(s Setup) ([]FaultPoint, error) {
	s.Workload.Replication = 3
	kinds := SchedulerKinds()
	return runParallel(len(kinds), func(i int) (FaultPoint, error) {
		k := kinds[i]
		// The baseline and the faulty run are independent: race them too.
		runs, err := runParallel(2, func(v int) (*engine.Result, error) {
			sp := s
			if v == 1 {
				n := s.Engine.Topology.Racks * s.Engine.Topology.NodesPerRack
				sp.Engine.Faults.Crashes = []faults.NodeCrash{
					{Node: n / 3, At: 20},
					{Node: 2 * n / 3, At: 60},
				}
			}
			return sp.RunBatch(workload.Wordcount, sp.BuilderFor(k))
		})
		if err != nil {
			return FaultPoint{}, err
		}
		base, faulty := runs[0], runs[1]
		return FaultPoint{
			Scheduler:         k.String(),
			BaselineJCT:       base.JobCompletionCDF().Mean(),
			FaultyJCT:         faulty.JobCompletionCDF().Mean(),
			RelaunchedMaps:    faulty.RelaunchedMaps,
			RelaunchedReduces: faulty.RelaunchedReduces,
			Unfinished:        faulty.Unfinished,
		}, nil
	})
}

// FaultReport renders the fault-tolerance comparison.
func FaultReport(points []FaultPoint) Report {
	t := metrics.NewTable("Scheduler", "Mean JCT", "Mean JCT (2 failures)", "Degradation", "Relaunched", "Unfinished")
	for _, p := range points {
		deg := "-"
		if p.BaselineJCT > 0 && !math.IsNaN(p.FaultyJCT) {
			deg = fmt.Sprintf("%+.1f%%", 100*(p.FaultyJCT-p.BaselineJCT)/p.BaselineJCT)
		}
		t.AddRow(p.Scheduler,
			fmt.Sprintf("%.1fs", p.BaselineJCT),
			fmt.Sprintf("%.1fs", p.FaultyJCT),
			deg,
			fmt.Sprintf("%dm+%dr", p.RelaunchedMaps, p.RelaunchedReduces),
			p.Unfinished)
	}
	return Report{ID: "faults", Title: "Job completion under node failures (replication 3)", Body: t.String()}
}

// JobPolicyComparison runs the probabilistic task-level scheduler under
// the two job-level policies Section II-A names (the paper's experiments
// use the Fair Scheduler; FIFO is the alternative).
func JobPolicyComparison(s Setup) ([]AblationPoint, error) {
	pols := []sched.JobPolicy{sched.FairJobs, sched.FIFOJobs}
	return runParallel(len(pols), func(i int) (AblationPoint, error) {
		cfg := sched.DefaultProbabilisticConfig()
		cfg.Pmin = s.Pmin
		cfg.JobPolicy = pols[i]
		res, err := s.runVariant(sched.NewProbabilistic(cfg))
		if err != nil {
			return AblationPoint{}, err
		}
		return pointFrom("job-level "+pols[i].String(), res), nil
	})
}

// SeedStudy reruns each batch under each scheduler for several seeds and
// reports per-scheduler mean job completion times with their ranges —
// the robustness view a single-seed table hides.
func SeedStudy(s Setup, seeds []int64) (Report, error) {
	if len(seeds) == 0 {
		return Report{}, fmt.Errorf("experiments: no seeds")
	}
	t := metrics.NewTable("Batch", "Scheduler", "Mean JCT (seed mean)", "min..max over seeds")
	// Flatten the (batch, scheduler, seed) cube into one flat fan-out; the
	// table rows are then assembled in the original nesting order.
	type cellKey struct {
		wk workload.Kind
		k  SchedulerKind
	}
	var cells []cellKey
	for _, wk := range workload.Kinds() {
		for _, k := range SchedulerKinds() {
			cells = append(cells, cellKey{wk, k})
		}
	}
	means, err := runParallel(len(cells)*len(seeds), func(i int) (float64, error) {
		c, seed := cells[i/len(seeds)], seeds[i%len(seeds)]
		sp := s
		sp.Engine.Seed = seed
		res, err := sp.RunBatch(c.wk, sp.BuilderFor(c.k))
		if err != nil {
			return 0, err
		}
		return res.JobCompletionCDF().Mean(), nil
	})
	if err != nil {
		return Report{}, err
	}
	grand := map[SchedulerKind][]float64{}
	for ci, c := range cells {
		mean := means[ci*len(seeds) : (ci+1)*len(seeds)]
		cdf := metrics.NewCDF(mean)
		t.AddRow(c.wk.String(), c.k.String(),
			fmt.Sprintf("%.1fs", cdf.Mean()),
			fmt.Sprintf("%.1f..%.1f", cdf.Min(), cdf.Max()))
		grand[c.k] = append(grand[c.k], mean...)
	}
	var note string
	for _, k := range SchedulerKinds() {
		note += fmt.Sprintf("grand mean (%s): %.1fs  ", k, metrics.NewCDF(grand[k]).Mean())
	}
	return Report{
		ID:    "seeds",
		Title: fmt.Sprintf("Seed study over %d seeds (mean JCT per batch)", len(seeds)),
		Body:  t.String() + note + "\n",
	}, nil
}

// AnalysisReport renders the closed-form trade-off analysis of the
// probabilistic rule (the paper's Section V future work) for the
// single-rack scenario: one data-local candidate plus uniformly remote
// nodes, the placement distribution every map task in the testbed faces.
func AnalysisReport(nodes int) (Report, error) {
	if nodes < 2 {
		return Report{}, fmt.Errorf("experiments: need >= 2 nodes for the analysis")
	}
	// Costs in block-size units: 0 for the local node, 2 hops for the rest.
	costs := make([]float64, nodes)
	for i := 1; i < nodes; i++ {
		costs[i] = 2
	}
	pmins := []float64{0, 0.2, 0.4, 0.6, 0.8, 0.95}
	curve, err := analysis.TradeoffCurve(costs, core.Exponential{}, pmins)
	if err != nil {
		return Report{}, err
	}
	t := metrics.NewTable("Pmin", "E[cost]", "E[offers]", "Saving vs random")
	for _, p := range curve {
		ec, eo := "-", "starved"
		if !math.IsNaN(p.ExpectedCost) {
			ec = fmt.Sprintf("%.3f", p.ExpectedCost)
		}
		if !math.IsInf(p.ExpectedOffers, 1) {
			eo = fmt.Sprintf("%.2f", p.ExpectedOffers)
		}
		t.AddRow(fmt.Sprintf("%.2f", p.Pmin), ec, eo, fmt.Sprintf("%.1f%%", 100*p.Saving))
	}
	// The remote-acceptance breakpoint: above it the task only ever accepts
	// its single local node, so assignment delay jumps to ~n offers (and to
	// starvation for tasks with no local candidate at all — the reduce-side
	// regime that limits the feasible P_min in the sweep experiment).
	thr, err := analysis.StarvationPmin(costs[1:], core.Exponential{})
	if err != nil {
		return Report{}, err
	}
	note := fmt.Sprintf(
		"remote-acceptance breakpoint: Pmin > %.3f gates every non-local node\n"+
			"(uniform remote costs give P = 1-e^{-1} ≈ 0.632, matching the Pmin sweep:\n"+
			"tasks with a local candidate then wait ~n offers; tasks without one starve)\n", thr)
	return Report{
		ID:    "analysis",
		Title: fmt.Sprintf("Closed-form cost/delay trade-off (%d nodes, 1 local candidate)", nodes),
		Body:  t.String() + note,
	}, nil
}
