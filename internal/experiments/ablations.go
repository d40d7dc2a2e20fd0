package experiments

import (
	"fmt"

	"mapsched/internal/core"
	"mapsched/internal/engine"
	"mapsched/internal/hdfs"
	"mapsched/internal/metrics"
	"mapsched/internal/sched"
	"mapsched/internal/workload"
)

// AblationPoint is one variant's outcome on a fixed workload.
type AblationPoint struct {
	Variant    string
	MeanJCT    float64
	MaxJCT     float64
	RemoteGB   float64 // network bytes moved (map fetch + shuffle)
	Unfinished int
}

func pointFrom(variant string, res *engine.Result) AblationPoint {
	cdf := res.JobCompletionCDF()
	return AblationPoint{
		Variant:    variant,
		MeanJCT:    cdf.Mean(),
		MaxJCT:     cdf.Max(),
		RemoteGB:   (res.MapRemoteBytes + res.ShuffleRemoteBytes) / 1e9,
		Unfinished: res.Unfinished,
	}
}

// AblationReport renders ablation points as a table of mean and max
// JCT, network bytes and unfinished jobs per variant.
func AblationReport(id, title string, points []AblationPoint) Report {
	t := metrics.NewTable("Variant", "Mean JCT", "Max JCT", "Network GB", "Unfinished")
	for _, p := range points {
		t.AddRow(p.Variant, fmt.Sprintf("%.1fs", p.MeanJCT), fmt.Sprintf("%.1fs", p.MaxJCT),
			fmt.Sprintf("%.1f", p.RemoteGB), p.Unfinished)
	}
	return Report{ID: id, Title: title, Body: t.String()}
}

// runVariant runs the Wordcount batch (the shuffle-heavy class where the
// estimator and cost model matter most) with a custom scheduler builder.
func (s Setup) runVariant(b sched.Builder) (*engine.Result, error) {
	return s.RunBatch(workload.Wordcount, b)
}

// AblationEstimator compares the paper's progress-scaled estimator against
// the Coupling-style current-size view and the unrealizable oracle
// (Section II-B-2's design choice).
func AblationEstimator(s Setup) ([]AblationPoint, error) {
	ests := []core.Estimator{core.ProgressScaled{}, core.CurrentSize{}, core.Oracle{}}
	return runParallel(len(ests), func(i int) (AblationPoint, error) {
		cfg := sched.DefaultProbabilisticConfig()
		cfg.Pmin = s.Pmin
		cfg.Estimator = ests[i]
		res, err := s.runVariant(sched.NewProbabilistic(cfg))
		if err != nil {
			return AblationPoint{}, err
		}
		return pointFrom(ests[i].Name(), res), nil
	})
}

// AblationNetworkCondition compares hop-count distances against
// inverse-transmission-rate distances under background cross-traffic
// (Section II-B-3's design choice).
func AblationNetworkCondition(s Setup) ([]AblationPoint, error) {
	modes := []core.Mode{core.ModeHops, core.ModeNetworkCondition}
	return runParallel(len(modes), func(i int) (AblationPoint, error) {
		sp := s
		sp.Engine.CostMode = modes[i]
		sp.Engine.CrossTraffic = 20
		res, err := sp.runVariant(sp.BuilderFor(Probabilistic))
		if err != nil {
			return AblationPoint{}, err
		}
		return pointFrom(modes[i].String(), res), nil
	})
}

// AblationDeterministic compares the probabilistic Bernoulli assignment
// against always assigning the minimum-cost candidate (Section II-C's
// "balance between transmission cost reduction and resource utilization").
func AblationDeterministic(s Setup) ([]AblationPoint, error) {
	dets := []bool{false, true}
	return runParallel(len(dets), func(i int) (AblationPoint, error) {
		cfg := sched.DefaultProbabilisticConfig()
		cfg.Pmin = s.Pmin
		cfg.Deterministic = dets[i]
		name := "probabilistic"
		if dets[i] {
			name = "deterministic"
		}
		res, err := s.runVariant(sched.NewProbabilistic(cfg))
		if err != nil {
			return AblationPoint{}, err
		}
		return pointFrom(name, res), nil
	})
}

// AblationReduceSpread toggles Algorithm 2 line 1 (one running reduce of a
// job per node).
func AblationReduceSpread(s Setup) ([]AblationPoint, error) {
	spreads := []bool{true, false}
	return runParallel(len(spreads), func(i int) (AblationPoint, error) {
		cfg := sched.DefaultProbabilisticConfig()
		cfg.Pmin = s.Pmin
		cfg.SpreadReduces = spreads[i]
		name := "spread-on"
		if !spreads[i] {
			name = "spread-off"
		}
		res, err := s.runVariant(sched.NewProbabilistic(cfg))
		if err != nil {
			return AblationPoint{}, err
		}
		return pointFrom(name, res), nil
	})
}

// MultiRack runs the three schedulers on a 4-rack topology with
// rack-spanning replicas — the regime the paper's introduction argues
// coarse-grained locality breaks in (replicas across racks, storage on a
// node subset).
func MultiRack(s Setup) ([]AblationPoint, error) {
	sp := s
	sp.Engine.Topology.Racks = 4
	sp.Engine.Topology.NodesPerRack = 15
	sp.Workload.Placement = hdfs.Subset{K: 30} // storage on half the nodes
	kinds := SchedulerKinds()
	return runParallel(len(kinds), func(i int) (AblationPoint, error) {
		res, err := sp.runVariant(sp.BuilderFor(kinds[i]))
		if err != nil {
			return AblationPoint{}, err
		}
		return pointFrom(kinds[i].String(), res), nil
	})
}

// AblationReports runs every ablation — each itself fanning its variants
// out — and renders them in the fixed presentation order.
func AblationReports(s Setup) ([]Report, error) {
	type entry struct {
		id, title string
		run       func(Setup) ([]AblationPoint, error)
	}
	entries := []entry{
		{"abl-estimator", "Estimator: progress-scaled vs current-size vs oracle", AblationEstimator},
		{"abl-netcond", "Distance: hop count vs inverse transmission rate (20 cross-traffic flows)", AblationNetworkCondition},
		{"abl-deterministic", "Assignment: probabilistic vs deterministic min-cost", AblationDeterministic},
		{"abl-spread", "Reduce spreading (Algorithm 2 line 1) on vs off", AblationReduceSpread},
		{"abl-multirack", "Multi-rack, storage-subset cluster (4 racks, Subset-30 placement)", MultiRack},
	}
	return runParallel(len(entries), func(i int) (Report, error) {
		e := entries[i]
		pts, err := e.run(s)
		if err != nil {
			return Report{}, fmt.Errorf("%s: %w", e.id, err)
		}
		return AblationReport(e.id, e.title, pts), nil
	})
}
