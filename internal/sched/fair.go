package sched

import (
	"fmt"

	"mapsched/internal/job"
	"mapsched/internal/obs"
	"mapsched/internal/placement"
	"mapsched/internal/topology"
)

// FairDelayConfig tunes the Fair Scheduler baseline.
type FairDelayConfig struct {
	// NodeLocalSkips is how many scheduling opportunities a job forgoes
	// waiting for a node-local slot before accepting rack-local placement
	// (delay scheduling's D1, expressed in skipped offers).
	NodeLocalSkips int
	// RackLocalSkips is the additional wait before accepting any node (D2).
	RackLocalSkips int
	// JobPolicy orders jobs (the Fair Scheduler nests FIFO-in-pool too).
	JobPolicy JobPolicy
}

// DefaultFairDelayConfig is calibrated so the baseline reproduces its
// measured operating point in the paper (Table III: 85.59% node-local
// tasks on the testbed): a short per-job offer-skip budget, consistent
// with Hadoop 1.2.1's time-based locality delay at heartbeat cadence.
func DefaultFairDelayConfig() FairDelayConfig {
	return FairDelayConfig{NodeLocalSkips: 1, RackLocalSkips: 2, JobPolicy: FairJobs}
}

// FairDelay is Hadoop's Fair Scheduler with Delay Scheduling: map tasks
// wait a bounded number of offers for data-local slots; reduce tasks are
// placed on the first available slot with no locality consideration
// ("randomly selects a reduce task to be assigned to an available reduce
// slot").
type FairDelay struct {
	env   Env
	cfg   FairDelayConfig
	dec   *placement.Decider
	skips map[job.ID]int // consecutive offers the job declined for locality
	pendingBuf
}

// NewFairDelay returns a Builder for the baseline.
func NewFairDelay(cfg FairDelayConfig) Builder {
	return func(env Env) Scheduler {
		dec := placement.NewDecider(env.Place, placement.Config{}, env.RNG, env.Obs)
		return &FairDelay{env: env, cfg: cfg, dec: dec, skips: make(map[job.ID]int)}
	}
}

// Name implements Scheduler.
func (f *FairDelay) Name() string {
	return fmt.Sprintf("fair-delay(d1=%d,d2=%d)", f.cfg.NodeLocalSkips, f.cfg.RackLocalSkips)
}

// AssignMap implements delay scheduling: prefer a node-local task; if the
// job has been skipped long enough, fall back to rack-local, then any.
func (f *FairDelay) AssignMap(ctx *Context, node topology.NodeID) *job.MapTask {
	for _, j := range placement.OrderJobs(ctx, f.cfg.JobPolicy, job.MapKind) {
		pending := f.pendingMaps(j)
		var local, rack, any *job.MapTask
		for _, m := range pending {
			switch f.dec.Locality(m, node) {
			case job.LocalNode:
				if local == nil {
					local = m
				}
			case job.LocalRack:
				if rack == nil {
					rack = m
				}
			default:
				if any == nil {
					any = m
				}
			}
			if local != nil {
				break
			}
		}
		if local != nil {
			f.skips[j.ID] = 0
			return f.emitAssign(ctx, node, local, "")
		}
		skips := f.skips[j.ID]
		if skips >= f.cfg.NodeLocalSkips && rack != nil {
			f.skips[j.ID] = 0
			return f.emitAssign(ctx, node, rack, "delay_expired")
		}
		if skips >= f.cfg.NodeLocalSkips+f.cfg.RackLocalSkips {
			f.skips[j.ID] = 0
			if rack != nil {
				return f.emitAssign(ctx, node, rack, "delay_expired")
			}
			if any != nil {
				return f.emitAssign(ctx, node, any, "delay_expired")
			}
			return f.emitAssign(ctx, node, pending[0], "delay_expired")
		}
		// Skip this job for locality and let the next job try this slot.
		f.skips[j.ID]++
		if f.env.Obs.Enabled() {
			e := decisionEvent(obs.TaskSkip, ctx.Now, node, j, "map", -1)
			e.Reason = "delay"
			f.env.Obs.Emit(e)
		}
	}
	return nil
}

// emitAssign publishes the map assignment (with its realized locality)
// and passes the task through.
func (f *FairDelay) emitAssign(ctx *Context, node topology.NodeID, m *job.MapTask, reason string) *job.MapTask {
	if f.env.Obs.Enabled() {
		e := decisionEvent(obs.TaskAssign, ctx.Now, node, m.Job, "map", m.Index)
		e.Locality = f.dec.Locality(m, node).String()
		e.Reason = reason
		f.env.Obs.Emit(e)
	}
	return m
}

// AssignReduce launches the next pending reduce of the first eligible job
// with no placement preference.
func (f *FairDelay) AssignReduce(ctx *Context, node topology.NodeID) *job.ReduceTask {
	for _, j := range placement.OrderJobs(ctx, f.cfg.JobPolicy, job.ReduceKind) {
		pending := f.pendingReduces(j)
		if len(pending) == 0 {
			continue
		}
		// "Randomly selects a reduce task": partitions are interchangeable
		// at this point, draw one uniformly.
		r := pending[f.dec.Intn(len(pending))]
		if f.env.Obs.Enabled() {
			e := decisionEvent(obs.TaskAssign, ctx.Now, node, j, "reduce", r.Index)
			e.Reason = "random"
			f.env.Obs.Emit(e)
		}
		return r
	}
	return nil
}
