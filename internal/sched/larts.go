package sched

import (
	"fmt"

	"mapsched/internal/core"
	"mapsched/internal/job"
	"mapsched/internal/placement"
	"mapsched/internal/topology"
)

// LARTSConfig tunes the LARTS baseline (Hammoud & Sakr, CloudCom'11),
// reconstructed from the paper's description: "a location-aware reduce
// task scheduler, which schedules the reduce tasks as close to their
// maximum amount of input data as possible and thus decreases the
// bandwidth cost during shuffling". Map scheduling follows delay
// scheduling, as in the original system (built on the Fair Scheduler).
type LARTSConfig struct {
	// Fair configures the map-side delay scheduling.
	Fair FairDelayConfig
	// MaxWait bounds how many offers a reduce declines while waiting for
	// the node holding the plurality of its input.
	MaxWait int
	// SweetSpotFraction accepts a node early when it already holds at
	// least this fraction of the reduce's current input.
	SweetSpotFraction float64
}

// DefaultLARTSConfig returns the baseline settings.
func DefaultLARTSConfig() LARTSConfig {
	return LARTSConfig{
		Fair:              DefaultFairDelayConfig(),
		MaxWait:           5,
		SweetSpotFraction: 0.25,
	}
}

// LARTS is the locality-aware reduce task scheduler baseline.
type LARTS struct {
	env   Env
	cfg   LARTSConfig
	dec   *placement.Decider
	maps  *FairDelay
	waits map[*job.ReduceTask]int
	pendingBuf
}

// NewLARTS returns a Builder for the baseline.
func NewLARTS(cfg LARTSConfig) Builder {
	return func(env Env) Scheduler {
		return &LARTS{
			env:   env,
			cfg:   cfg,
			dec:   placement.NewDecider(env.Place, placement.Config{}, env.RNG, env.Obs),
			maps:  NewFairDelay(cfg.Fair)(env).(*FairDelay),
			waits: make(map[*job.ReduceTask]int),
		}
	}
}

// Name implements Scheduler.
func (l *LARTS) Name() string {
	return fmt.Sprintf("larts(wait=%d,sweet=%.2f)", l.cfg.MaxWait, l.cfg.SweetSpotFraction)
}

// AssignMap delegates to delay scheduling (LARTS only changes reduces).
func (l *LARTS) AssignMap(ctx *Context, node topology.NodeID) *job.MapTask {
	return l.maps.AssignMap(ctx, node)
}

// AssignReduce places each reduce as close to its largest input source as
// possible: it accepts the offered node when that node already holds a
// sweet-spot share of the reduce's current input or is the current
// maximum-data node, and otherwise waits a bounded number of offers.
func (l *LARTS) AssignReduce(ctx *Context, node topology.NodeID) *job.ReduceTask {
	for _, j := range orderJobs(ctx, l.cfg.Fair.JobPolicy, reduceKind) {
		pending := l.pendingReduces(j)
		if len(pending) == 0 {
			continue
		}
		rc := l.dec.NewReduceCoster(j, core.CurrentSize{})
		// Consider the pending reduce with the most known input — its
		// placement matters most now.
		best := pending[0]
		bestVol := rc.TotalEstimated(best.Index)
		for _, r := range pending[1:] {
			if v := rc.TotalEstimated(r.Index); v > bestVol {
				bestVol = v
				best = r
			}
		}
		if bestVol == 0 {
			// No shuffle data known yet: any node is as good as any other.
			delete(l.waits, best)
			return best
		}
		// Accept when the node is (near-)optimal for this reduce.
		central, ok := rc.Centrality(best.Index, ctx.AvailReduce.Nodes)
		if ok && central == node {
			delete(l.waits, best)
			return best
		}
		if rc.OnNode(node, best.Index) >= l.cfg.SweetSpotFraction*bestVol {
			// The offered node already holds a significant share of the
			// reduce's input.
			delete(l.waits, best)
			return best
		}
		if l.waits[best] >= l.cfg.MaxWait {
			delete(l.waits, best)
			return best
		}
		l.waits[best]++
		return nil
	}
	return nil
}
