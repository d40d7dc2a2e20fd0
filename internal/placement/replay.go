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
	topo, err := topology.NewCluster(sim.NewEngine(), rc.Topology)
	if err != nil {
		return nil, err
	}
	root := sim.NewRNG(rc.Seed)
	store := hdfs.NewStore(topo, root.Fork("hdfs"))
	slots, err := cluster.New(topo.Size(), rc.MapSlotsPerNode, rc.ReduceSlotsPerNode)
	if err != nil {
		return nil, err
	}
	svc, err := NewService(Deps{Net: topo, Store: store, Rate: topo, Slots: slots, Mode: core.ModeHops})
	if err != nil {
		return nil, err
	}
	dec := NewDecider(svc, rc.Sched, nil, nil)
	rngJobs := root.Fork("jobs") // the shared jobs RNG stream

	rep := &ReplayReport{Events: len(events)}
	mismatch := func(i int, ev *obs.Event, format string, args ...any) {
		if len(rep.Mismatches) >= maxMismatches {
			return
		}
		head := fmt.Sprintf("event %d (%s %s t=%.3f): ", i, ev.Type, ev.Job, ev.T)
		rep.Mismatches = append(rep.Mismatches, head+fmt.Sprintf(format, args...))
	}
	byName := make(map[string]*job.Job, len(rc.Specs))
	used := make([]bool, len(rc.Specs))
	var active []*job.Job
	req := &Request{}

	for i := range events {
		ev := &events[i]
		switch ev.Type {
		case obs.JobSubmit:
			// Instantiate jobs in stream order so the shared jobs RNG
			// stream is consumed exactly as the recording run consumed
			// it; the job ID is the spec's 1-based position, as in the
			// engine.
			idx := -1
			for si, spec := range rc.Specs {
				if !used[si] && spec.Name == ev.Job {
					idx = si
					break
				}
			}
			if idx < 0 {
				return nil, fmt.Errorf("placement: replay: job_submit %q matches no unused spec", ev.Job)
			}
			used[idx] = true
			j, err := job.New(job.ID(idx+1), rc.Specs[idx], store, rngJobs)
			if err != nil {
				return nil, fmt.Errorf("placement: replay: %w", err)
			}
			j.Submitted = sim.Time(ev.T)
			byName[ev.Job] = j
			active = append(active, j)

		case obs.JobFinish:
			for k, j := range active {
				if j.Spec.Name == ev.Job {
					active = append(active[:k], active[k+1:]...)
					break
				}
			}

		case obs.TaskStart, obs.TaskFinish:
			j := byName[ev.Job]
			if j == nil || ev.Task == nil {
				return nil, fmt.Errorf("placement: replay: %s for unknown job %q", ev.Type, ev.Job)
			}
			n := topology.NodeID(ev.Node)
			start := ev.Type == obs.TaskStart
			kind := MapSlot
			switch {
			case ev.Task.Kind == "map" && start:
				j.Maps[ev.Task.Index].Run(n, sim.Time(ev.T))
			case ev.Task.Kind == "map":
				j.Maps[ev.Task.Index].Complete(sim.Time(ev.T))
			case start:
				kind = ReduceSlot
				j.Reduces[ev.Task.Index].Run(n, sim.Time(ev.T))
			default:
				kind = ReduceSlot
				j.Reduces[ev.Task.Index].Complete(sim.Time(ev.T))
			}
			if start {
				err = svc.ApplySlotAcquire(kind, n)
			} else {
				err = svc.ApplySlotRelease(kind, n)
			}
			if err != nil {
				return nil, fmt.Errorf("placement: replay: %w", err)
			}
			rep.Deltas++

		case obs.TaskOffer, obs.TaskAssign, obs.TaskSkip:
			if ev.Task == nil || ev.Task.Kind != "map" || ev.Task.Index < 0 {
				continue // reduce decisions carry unrecorded progress state
			}
			if ev.Decision == nil {
				return nil, fmt.Errorf("placement: replay: event %d: map decision without a breakdown (not a probabilistic recording)", i)
			}
			rep.MapDecisions++
			req.Now = sim.Time(ev.T)
			req.Jobs = active
			v := svc.Snapshot()
			req.AvailMap, req.AvailReduce = v.AvailMap, v.AvailReduce
			req.Slowstart = 0 // map decisions never consult the slowstart gate
			e := dec.EvaluateMap(req, topology.NodeID(ev.Node))

			var want core.Choice
			switch d := ev.Decision; d.Draw {
			case "local":
				if !e.InstantLocal {
					mismatch(i, ev, "recorded instant-local assign, evaluation found none")
					continue
				}
				want = e.Best
			case "local_fallback":
				if e.InstantLocal || !e.HasLocal {
					mismatch(i, ev, "recorded local fallback, evaluation has instant=%v local=%v", e.InstantLocal, e.HasLocal)
					continue
				}
				want = e.Local
			default: // the gate's offer / accept / deterministic / below_pmin / decline
				if e.InstantLocal || !e.HasBest {
					mismatch(i, ev, "recorded gated decision, evaluation has instant=%v best=%v", e.InstantLocal, e.HasBest)
					continue
				}
				want = e.Best
			}
			m := want.MapTask
			if m.Job.Spec.Name != ev.Job || m.Index != ev.Task.Index {
				mismatch(i, ev, "chose %s/%d, recording has %s/%d", m.Job.Spec.Name, m.Index, ev.Job, ev.Task.Index)
				continue
			}
			// The breakdown must agree bit-for-bit. Instant-local and
			// fallback assigns record C=0 / P=1 by construction; gated
			// events carry the candidate's computed cost and probability.
			gotC, gotAvg, gotP := want.Cost, want.AvgCost, want.Prob
			if ev.Decision.Draw == "local" || ev.Decision.Draw == "local_fallback" {
				gotC, gotP = 0, 1
			}
			if gotC != ev.Decision.C || gotAvg != ev.Decision.CAvg || gotP != ev.Decision.P {
				mismatch(i, ev, "breakdown C=%v CAvg=%v P=%v, recording has C=%v CAvg=%v P=%v",
					gotC, gotAvg, gotP, ev.Decision.C, ev.Decision.CAvg, ev.Decision.P)
			}

		case obs.SpecStart, obs.SpecWin, obs.NodeFail, obs.FailureDetected,
			obs.TaskRelaunch, obs.AttemptFail, obs.NodeBlacklist,
			obs.ReplicaLoss, obs.LinkDegrade, obs.NodeSlow, obs.JobFail:
			return nil, fmt.Errorf("%w: event %d: %s streams move slots outside the recorded task lifecycle", ErrNotReplayable, i, ev.Type)

		default:
			// Flow-level events carry no placement state.
		}
	}
	return rep, nil
}
