package sched

import (
	"fmt"

	"mapsched/internal/core"
	"mapsched/internal/job"
	"mapsched/internal/placement"
	"mapsched/internal/topology"
)

// ProbabilisticConfig tunes the paper's scheduler. It is the placement
// package's decision config: the scheduler is a thin engine adapter over
// a placement.Decider.
type ProbabilisticConfig = placement.Config

// DefaultProbabilisticConfig returns the paper's settings.
func DefaultProbabilisticConfig() ProbabilisticConfig {
	return placement.DefaultConfig()
}

// Probabilistic is the paper's probabilistic network-aware scheduler: an
// adapter routing the engine's slot offers through a placement.Decider
// session, which owns the cost caches and implements Algorithms 1–2.
type Probabilistic struct {
	env Env
	cfg ProbabilisticConfig
	dec *placement.Decider
}

// NewProbabilistic returns a Builder for the scheduler with the given
// configuration; zero-value estimator and policy fall back to the paper's
// defaults.
func NewProbabilistic(cfg ProbabilisticConfig) Builder {
	if cfg.Estimator == nil {
		cfg.Estimator = core.ProgressScaled{}
	}
	if cfg.Model == nil {
		cfg.Model = core.Exponential{}
	}
	return func(env Env) Scheduler {
		return &Probabilistic{
			env: env,
			cfg: cfg,
			dec: placement.NewDecider(env.Place, cfg, env.RNG, env.Obs),
		}
	}
}

// Name implements Scheduler.
func (p *Probabilistic) Name() string {
	n := "probabilistic"
	if p.cfg.Deterministic {
		n = "deterministic-cost"
	}
	if p.dec.Mode() == core.ModeNetworkCondition {
		n += "+netcond"
	}
	return fmt.Sprintf("%s(pmin=%.2f,est=%s,model=%s)", n, p.cfg.Pmin, p.cfg.Estimator.Name(), p.cfg.Model.Name())
}

// AssignMap implements Algorithm 1 on the offered node via the decision
// service; see placement.Decider.PlaceMap for the selection and gate
// semantics.
func (p *Probabilistic) AssignMap(ctx *Context, node topology.NodeID) *job.MapTask {
	m, _ := p.dec.PlaceMap(ctx, node)
	return m
}

// AssignReduce implements Algorithm 2 on the offered node via the
// decision service; see placement.Decider.PlaceReduce.
func (p *Probabilistic) AssignReduce(ctx *Context, node topology.NodeID) *job.ReduceTask {
	r, _ := p.dec.PlaceReduce(ctx, node)
	return r
}
