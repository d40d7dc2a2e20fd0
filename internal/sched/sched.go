// Package sched implements the task-level schedulers compared in the
// paper's evaluation:
//
//   - Probabilistic: the paper's contribution (Algorithms 1–2) — cost-based
//     candidate selection with probabilistic assignment and a P_min gate.
//   - FairDelay: Hadoop 1.2.1's Fair Scheduler with Delay Scheduling for
//     map locality and random reduce placement.
//   - Coupling: Tan et al.'s Coupling Scheduler — probabilistic map launch
//     by locality degree, reduce launches paced by map progress and aimed
//     at the data-"centrality" node with a bounded wait.
//
// All schedulers share the same job-level policy (fair ordering, as in the
// paper's experiments; FIFO is available as an option) and are invoked by
// the engine at heartbeat time with one offered node. Every scheduler
// routes its state reads and decisions through a placement.Decider session
// against the simulation's placement.Service — the schedulers are the
// decision service's first client.
package sched

import (
	"mapsched/internal/job"
	"mapsched/internal/obs"
	"mapsched/internal/placement"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
)

// Env carries the long-lived dependencies a scheduler needs.
type Env struct {
	// Place is the placement decision service wrapping the simulation's
	// network, block store and slot state; schedulers open Decider
	// sessions against it.
	Place *placement.Service
	RNG   *sim.RNG
	// Obs receives task_offer / task_assign / task_skip events carrying the
	// decision breakdown. A nil stream (the default outside a full
	// simulation) disables emission at the cost of one comparison.
	Obs *obs.Stream
}

// Context is the cluster snapshot for one assignment decision: the
// placement request the Decider sessions read. The engine refreshes task
// progress (d_read, A_jf) before building it, and reuses one Context
// across offers so its OrderJobs scratch buffers persist.
type Context = placement.Request

// Scheduler decides task placements when a node offers free slots.
// Returning nil leaves the slot idle until a later heartbeat.
type Scheduler interface {
	Name() string
	AssignMap(ctx *Context, node topology.NodeID) *job.MapTask
	AssignReduce(ctx *Context, node topology.NodeID) *job.ReduceTask
}

// Builder constructs a scheduler bound to a simulation's environment.
type Builder func(Env) Scheduler

// JobPolicy orders jobs for task-level scheduling; it lives in the
// placement package and is aliased here for the scheduler configs.
type JobPolicy = placement.JobPolicy

// Job-level policies.
const (
	// FairJobs orders jobs by fewest running tasks of the requested kind
	// (Hadoop Fair Scheduler's equal-share special case, as used in the
	// paper's experiments), breaking ties by submission order.
	FairJobs = placement.FairJobs
	// FIFOJobs orders jobs strictly by submission order.
	FIFOJobs = placement.FIFOJobs
)

// taskKind selects which running-task count fair ordering uses.
type taskKind = placement.TaskKind

const (
	mapKind    = placement.MapTasks
	reduceKind = placement.ReduceTasks
)

// orderJobs returns ctx.Jobs sorted under the policy for the given kind,
// considering only jobs that still have pending tasks of that kind; see
// placement.OrderJobs. The returned slice is Context scratch: valid until
// the next orderJobs call on the same Context, never retained by
// schedulers.
func orderJobs(ctx *Context, policy JobPolicy, kind taskKind) []*job.Job {
	return placement.OrderJobs(ctx, policy, kind)
}

// pendingBuf is a baseline scheduler's scratch for one job's pending
// tasks, reused across offers so listing candidates allocates nothing.
// Each returned slice is valid until the next call of the same kind.
type pendingBuf struct {
	maps []*job.MapTask
	reds []*job.ReduceTask
}

// pendingMaps lists j's pending maps in task-index order.
func (b *pendingBuf) pendingMaps(j *job.Job) []*job.MapTask {
	b.maps = j.AppendPendingMaps(b.maps[:0])
	return b.maps
}

// pendingReduces lists j's pending reduces in task-index order.
func (b *pendingBuf) pendingReduces(j *job.Job) []*job.ReduceTask {
	b.reds = j.AppendPendingReduces(b.reds[:0])
	return b.reds
}
