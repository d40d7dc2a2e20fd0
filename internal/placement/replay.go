package placement

import (
	"fmt"

	"mapsched/internal/cluster"
	"mapsched/internal/core"
	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/obs"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
)

// ReplayConfig reconstructs the cluster a decision stream was recorded
// on: the same topology, slot counts, seed and job specs the simulation
// ran with. Replay rebuilds the block placements and job shapes from the
// seed (the labeled RNG forks make them a pure function of it), then
// feeds the recorded lifecycle events back in as Service deltas.
type ReplayConfig struct {
	Topology           topology.Spec
	MapSlotsPerNode    int
	ReduceSlotsPerNode int
	Seed               int64
	Specs              []job.Spec
	// Sched is the decision configuration of the recorded scheduler
	// (the probabilistic scheduler's placement.Config).
	Sched Config
}

// ReplayReport summarizes a replay: how many recorded map decisions were
// re-derived engine-free and whether any disagreed with the recording.
type ReplayReport struct {
	// Events is the total number of stream events consumed.
	Events int
	// MapDecisions is the number of recorded map decision events
	// (offer / assign / skip with a breakdown) that were re-derived.
	MapDecisions int
	// Deltas is the number of lifecycle events applied as Service deltas.
	Deltas int
	// Mismatches lists recorded decisions the engine-free path
	// disagreed with (empty on a faithful replay).
	Mismatches []string
}

// Ok reports whether every re-derived decision matched the recording.
func (r *ReplayReport) Ok() bool { return len(r.Mismatches) == 0 }

// maxMismatches bounds the report so a systematically wrong replay stays
// readable.
const maxMismatches = 20

// replayDeps is the deterministic base state a replay (or a recovery
// inside the chaos harness) builds over: a pure function of the
// ReplayConfig, so two constructions from the same config are
// bit-identical.
type replayDeps struct {
	deps    Deps
	store   *hdfs.Store
	rngJobs *sim.RNG
}

// newReplayDeps rebuilds the recorded cluster from the seed.
func newReplayDeps(rc ReplayConfig) (*replayDeps, error) {
	eng := sim.NewEngine()
	topo, err := topology.NewCluster(eng, rc.Topology)
	if err != nil {
		return nil, err
	}
	root := sim.NewRNG(rc.Seed)
	store := hdfs.NewStore(topo, root.Fork("hdfs"))
	slots, err := cluster.New(topo.Size(), rc.MapSlotsPerNode, rc.ReduceSlotsPerNode)
	if err != nil {
		return nil, err
	}
	return &replayDeps{
		deps:    Deps{Net: topo, Store: store, Rate: topo, Slots: slots, Mode: core.ModeHops},
		store:   store,
		rngJobs: root.Fork("jobs"),
	}, nil
}

// replayer walks a recorded event stream one event at a time, feeding
// lifecycle events back into a Service as slot deltas and re-deriving
// every recorded map decision. The per-event step method (instead of
// one monolithic loop) is what lets the chaos harness kill the service
// between any two events and resume a fresh replayer mid-stream.
type replayer struct {
	rc     ReplayConfig
	events []obs.Event

	svc   *Service
	dec   *Decider
	store *hdfs.Store
	rng   *sim.RNG // the shared jobs RNG stream

	byName map[string]*job.Job
	used   []bool
	active []*job.Job
	req    *Request
	rep    *ReplayReport

	// statesOnly rebuilds only client-owned state (jobs, tasks, blocks)
	// without touching a Service: no deltas, no decisions. The chaos
	// harness uses it to re-derive the client's half of the state for
	// the event prefix a Recover covers — the service half comes from
	// the checkpoint and journal.
	statesOnly bool

	// onDecision, when set, receives the derived breakdown line of every
	// map decision event (keyed by event index) — the chaos harness's
	// convergence probe.
	onDecision func(i int, line string)
}

// newReplayer builds a replayer over fresh deps. With svc == nil the
// replayer starts in statesOnly mode until a service is attached.
func newReplayer(rc ReplayConfig, events []obs.Event, d *replayDeps, svc *Service) *replayer {
	r := &replayer{
		rc:     rc,
		events: events,
		store:  d.store,
		rng:    d.rngJobs,
		byName: make(map[string]*job.Job, len(rc.Specs)),
		used:   make([]bool, len(rc.Specs)),
		req:    &Request{},
		rep:    &ReplayReport{Events: len(events)},
	}
	if svc == nil {
		r.statesOnly = true
	} else {
		r.attach(svc)
	}
	return r
}

// attach leaves statesOnly mode: subsequent steps apply deltas to svc
// and re-derive decisions against it.
func (r *replayer) attach(svc *Service) {
	r.svc = svc
	r.dec = NewDecider(svc, r.rc.Sched, nil, nil)
	r.statesOnly = false
}

// mismatch records one decision disagreement.
func (r *replayer) mismatch(i int, ev *obs.Event, format string, args ...interface{}) {
	if len(r.rep.Mismatches) >= maxMismatches {
		return
	}
	head := fmt.Sprintf("event %d (%s %s t=%.3f): ", i, ev.Type, ev.Job, ev.T)
	r.rep.Mismatches = append(r.rep.Mismatches, head+fmt.Sprintf(format, args...))
}

// step consumes event i: lifecycle events mutate client state (and, off
// statesOnly mode, apply the matching Service delta); decision events
// are re-derived and checked against the recording.
func (r *replayer) step(i int) error {
	ev := &r.events[i]
	switch ev.Type {
	case obs.JobSubmit:
		// Instantiate jobs in stream order so the shared jobs RNG
		// stream is consumed exactly as the recording run consumed it;
		// the job ID is the spec's 1-based position, as in the engine.
		idx := -1
		for si, spec := range r.rc.Specs {
			if !r.used[si] && spec.Name == ev.Job {
				idx = si
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("placement: replay: job_submit %q matches no unused spec", ev.Job)
		}
		r.used[idx] = true
		j, err := job.New(job.ID(idx+1), r.rc.Specs[idx], r.store, r.rng)
		if err != nil {
			return fmt.Errorf("placement: replay: %w", err)
		}
		j.Submitted = sim.Time(ev.T)
		r.byName[ev.Job] = j
		r.active = append(r.active, j)

	case obs.JobFinish:
		for k, j := range r.active {
			if j.Spec.Name == ev.Job {
				r.active = append(r.active[:k], r.active[k+1:]...)
				break
			}
		}

	case obs.TaskStart:
		j := r.byName[ev.Job]
		if j == nil || ev.Task == nil {
			return fmt.Errorf("placement: replay: task_start for unknown job %q", ev.Job)
		}
		n := topology.NodeID(ev.Node)
		kind := MapSlot
		if ev.Task.Kind == "map" {
			j.Maps[ev.Task.Index].Run(n, sim.Time(ev.T))
		} else {
			kind = ReduceSlot
			j.Reduces[ev.Task.Index].Run(n, sim.Time(ev.T))
		}
		if !r.statesOnly {
			if err := r.svc.ApplySlotAcquire(kind, n); err != nil {
				return fmt.Errorf("placement: replay: %w", err)
			}
			r.rep.Deltas++
		}

	case obs.TaskFinish:
		j := r.byName[ev.Job]
		if j == nil || ev.Task == nil {
			return fmt.Errorf("placement: replay: task_finish for unknown job %q", ev.Job)
		}
		n := topology.NodeID(ev.Node)
		kind := MapSlot
		if ev.Task.Kind == "map" {
			j.Maps[ev.Task.Index].Complete(sim.Time(ev.T))
		} else {
			kind = ReduceSlot
			j.Reduces[ev.Task.Index].Complete(sim.Time(ev.T))
		}
		if !r.statesOnly {
			if err := r.svc.ApplySlotRelease(kind, n); err != nil {
				return fmt.Errorf("placement: replay: %w", err)
			}
			r.rep.Deltas++
		}

	case obs.TaskOffer, obs.TaskAssign, obs.TaskSkip:
		if ev.Task == nil || ev.Task.Kind != "map" || ev.Task.Index < 0 {
			return nil // reduce decisions carry unrecorded progress state
		}
		if ev.Decision == nil {
			return fmt.Errorf("placement: replay: event %d: map decision without a breakdown (not a probabilistic recording)", i)
		}
		if r.statesOnly {
			return nil
		}
		r.rep.MapDecisions++
		r.req.Now = sim.Time(ev.T)
		r.req.Jobs = r.active
		v := r.svc.Snapshot()
		r.req.AvailMap, r.req.AvailReduce = v.AvailMap, v.AvailReduce
		r.req.Slowstart = 0 // map decisions never consult the slowstart gate
		e := r.dec.EvaluateMap(r.req, topology.NodeID(ev.Node))

		var want core.Choice
		switch d := ev.Decision; d.Draw {
		case "local":
			if !e.InstantLocal {
				r.mismatch(i, ev, "recorded instant-local assign, evaluation found none")
				return nil
			}
			want = e.Best
		case "local_fallback":
			if e.InstantLocal || !e.HasLocal {
				r.mismatch(i, ev, "recorded local fallback, evaluation has instant=%v local=%v", e.InstantLocal, e.HasLocal)
				return nil
			}
			want = e.Local
		default: // the gate's offer / accept / deterministic / below_pmin / decline
			if e.InstantLocal || !e.HasBest {
				r.mismatch(i, ev, "recorded gated decision, evaluation has instant=%v best=%v", e.InstantLocal, e.HasBest)
				return nil
			}
			want = e.Best
		}
		m := want.MapTask
		// The breakdown must agree bit-for-bit. Instant-local and
		// fallback assigns record C=0 / P=1 by construction; gated
		// events carry the candidate's computed cost and probability.
		gotC, gotAvg, gotP := want.Cost, want.AvgCost, want.Prob
		if ev.Decision.Draw == "local" || ev.Decision.Draw == "local_fallback" {
			gotC, gotP = 0, 1
		}
		if r.onDecision != nil {
			r.onDecision(i, fmt.Sprintf("%s/%d C=%v CAvg=%v P=%v",
				m.Job.Spec.Name, m.Index, gotC, gotAvg, gotP))
		}
		if m.Job.Spec.Name != ev.Job || m.Index != ev.Task.Index {
			r.mismatch(i, ev, "chose %s/%d, recording has %s/%d", m.Job.Spec.Name, m.Index, ev.Job, ev.Task.Index)
			return nil
		}
		if gotC != ev.Decision.C || gotAvg != ev.Decision.CAvg || gotP != ev.Decision.P {
			r.mismatch(i, ev, "breakdown C=%v CAvg=%v P=%v, recording has C=%v CAvg=%v P=%v",
				gotC, gotAvg, gotP, ev.Decision.C, ev.Decision.CAvg, ev.Decision.P)
		}

	case obs.SpecStart, obs.SpecWin, obs.NodeFail, obs.FailureDetected,
		obs.TaskRelaunch, obs.AttemptFail, obs.NodeBlacklist,
		obs.ReplicaLoss, obs.LinkDegrade, obs.NodeSlow, obs.JobFail:
		return fmt.Errorf("%w: event %d: %s streams move slots outside the recorded task lifecycle", ErrNotReplayable, i, ev.Type)

	default:
		// Flow-level events carry no placement state.
	}
	return nil
}

// Replay is the decision service's second client — the engine-free path.
// It rebuilds the recorded cluster from the seed, walks the recorded
// event stream feeding task lifecycle events back into a Service as slot
// deltas, and re-derives every recorded map placement decision with a
// gate-free Decider evaluation, checking the chosen task and its
// C / C_avg / P breakdown bit-for-bit against the recording.
//
// Replay is exact for map decisions of hop-mode, fault-free,
// speculation-free probabilistic runs: map costs are a pure function of
// block placement and slot availability, both of which the stream
// reconstructs. Reduce decisions depend on continuously-evolving task
// progress (the A_jf estimates) that heartbeat streams do not record, and
// fault or speculation events mutate slots outside the recorded task
// lifecycle, so those streams are rejected (ErrNotReplayable) rather
// than replayed wrong.
func Replay(rc ReplayConfig, events []obs.Event) (*ReplayReport, error) {
	d, err := newReplayDeps(rc)
	if err != nil {
		return nil, err
	}
	svc, err := NewService(d.deps)
	if err != nil {
		return nil, err
	}
	r := newReplayer(rc, events, d, svc)
	for i := range events {
		if err := r.step(i); err != nil {
			return nil, err
		}
	}
	return r.rep, nil
}
