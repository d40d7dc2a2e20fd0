package sched

import (
	"fmt"

	"mapsched/internal/core"
	"mapsched/internal/job"
	"mapsched/internal/placement"
	"mapsched/internal/topology"
)

// The LARTS baseline's reduce settings: lartsMaxWait bounds how many
// offers a reduce declines while waiting for the node holding the
// plurality of its input, and a node holding at least lartsSweetSpot of
// the reduce's current input is accepted early.
const (
	lartsMaxWait   = 5
	lartsSweetSpot = 0.25
)

// LARTS is the locality-aware reduce task scheduler baseline (Hammoud &
// Sakr, CloudCom'11), reconstructed from the paper's description: "a
// location-aware reduce task scheduler, which schedules the reduce tasks
// as close to their maximum amount of input data as possible and thus
// decreases the bandwidth cost during shuffling". Map scheduling follows
// the FairDelay baseline, as in the original system (built on the Fair
// Scheduler), and jobs are offered slots in fair order.
type LARTS struct {
	env   Env
	dec   *placement.Decider
	maps  *FairDelay
	waits map[*job.ReduceTask]int
	pendingBuf
}

// NewLARTS returns a Builder for the baseline.
func NewLARTS() Builder {
	return func(env Env) Scheduler {
		return &LARTS{
			env:   env,
			dec:   placement.NewDecider(env.Place, placement.Config{}, env.RNG, env.Obs),
			maps:  NewFairDelay()(env).(*FairDelay),
			waits: make(map[*job.ReduceTask]int),
		}
	}
}

// Name implements Scheduler.
func (l *LARTS) Name() string {
	return fmt.Sprintf("larts(wait=%d,sweet=%.2f)", lartsMaxWait, lartsSweetSpot)
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
	for _, j := range placement.OrderJobs(ctx, FairJobs, job.ReduceKind) {
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
		if rc.OnNode(node, best.Index) >= lartsSweetSpot*bestVol {
			// The offered node already holds a significant share of the
			// reduce's input.
			delete(l.waits, best)
			return best
		}
		if l.waits[best] >= lartsMaxWait {
			delete(l.waits, best)
			return best
		}
		l.waits[best]++
		return nil
	}
	return nil
}
