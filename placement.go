package mapsched

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"mapsched/internal/cluster"
	"mapsched/internal/core"
	"mapsched/internal/engine"
	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/obs"
	"mapsched/internal/placement"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
	"mapsched/internal/workload"
)

// PlacementDecision is the full breakdown of one placement decision:
// the Formula 1–5 quantities (transmission cost C, expected cost C_avg,
// acceptance probability P against the P_min threshold), the draw
// outcome, and the delta epoch the decision observed. When Assigned is
// false the slot stays idle and Job/Task identify nothing.
type PlacementDecision struct {
	// Assigned reports whether a task was placed.
	Assigned bool
	// Job and Task identify the placed task; Kind is "map" or "reduce".
	Job  string
	Task int
	Kind string
	// Node is the node the slot was offered on.
	Node int

	// C, CAvg, P, PMin are the decision quantities of Formulas 1–5.
	C, CAvg, P, PMin float64
	// Draw names the outcome: "local", "local_fallback", "accept",
	// "deterministic", "below_pmin" or "decline".
	Draw string
	// Epoch is the service delta epoch the decision was computed at.
	Epoch uint64
}

// PlacementService is the paper's placement rule served standalone —
// no discrete-event engine, no simulated clock. It owns a synthetic
// cluster (topology, replicated block store, slot state) built from
// the public configuration and answers placement questions about the
// configured jobs while the caller drives cluster state through
// explicit deltas.
//
// Concurrency: the delta methods (Commit, Complete, SetNodeOffline,
// SetNodeBlacklisted, SetLinkFactor, LoseNodeReplicas) are safe for
// concurrent use. The decision methods form one session and must not
// be called concurrently with each other; concurrent decision sessions
// over one shared state are an internal-API feature (see
// internal/placement and DESIGN.md §15).
type PlacementService struct {
	svc    *placement.Service
	dec    *placement.Decider
	jobs   []*job.Job
	byName map[string]*job.Job
	req    placement.Request
}

// placementParts is the deterministic base state both
// NewPlacementService and RecoverPlacementService build from: identical
// configuration and seed produce an identical base, which is what makes
// a checkpoint+journal recovery land on the same state as the original
// construction. The RNG forks are drawn in a fixed order (hdfs, sched,
// jobs) so every consumer sees the same streams either way.
type placementParts struct {
	deps   placement.Deps
	pc     placement.Config
	sched  *sim.RNG
	jobs   *sim.RNG
	stream *obs.Stream
	specs  []job.Spec
}

// buildPlacementParts validates the configuration and constructs the
// synthetic cluster, block store, slot state and RNG forks.
func buildPlacementParts(cfg ClusterConfig, defs []JobDef, o options) (*placementParts, error) {
	if len(defs) == 0 {
		return nil, fmt.Errorf("mapsched: no jobs to place")
	}
	if o.seedSet {
		cfg.Seed = o.seed
	}
	if o.costModeSet {
		cfg.CostMode = o.costMode
	}
	specs, err := workload.Specs(defs, o.workloadOptions())
	if err != nil {
		return nil, err
	}
	topo, err := topology.NewCluster(sim.NewEngine(), cfg.Topology)
	if err != nil {
		return nil, err
	}
	root := sim.NewRNG(cfg.Seed)
	store := hdfs.NewStore(topo, root.Fork("hdfs"))
	slots, err := cluster.New(topo.Size(), cfg.MapSlotsPerNode, cfg.ReduceSlotsPerNode)
	if err != nil {
		return nil, err
	}
	stream := obs.NewStream()
	for _, ob := range o.observers {
		stream.Attach(ob)
	}
	return &placementParts{
		deps: placement.Deps{
			Net: topo, Store: store, Slots: slots, Mode: cfg.CostMode,
		},
		pc:     o.placementConfig(),
		sched:  root.Fork("sched"),
		jobs:   root.Fork("jobs"),
		stream: stream,
		specs:  specs,
	}, nil
}

// buildJobs creates the job set, populating the block store — part of
// the deterministic base, so recovery must run it before restoring a
// checkpoint (the checkpoint's replica sets apply over these blocks).
func (parts *placementParts) buildJobs() ([]*job.Job, map[string]*job.Job, error) {
	jobs := make([]*job.Job, 0, len(parts.specs))
	byName := make(map[string]*job.Job, len(parts.specs))
	for i, spec := range parts.specs {
		j, err := job.New(job.ID(i+1), spec, parts.deps.Store, parts.jobs)
		if err != nil {
			return nil, nil, err
		}
		jobs = append(jobs, j)
		byName[spec.Name] = j
	}
	return jobs, byName, nil
}

// wire finishes a PlacementService around a constructed (or recovered)
// service and an already-built job set.
func (parts *placementParts) wire(svc *placement.Service, jobs []*job.Job, byName map[string]*job.Job) *PlacementService {
	return &PlacementService{
		svc:    svc,
		dec:    placement.NewDecider(svc, parts.pc, parts.sched, parts.stream),
		jobs:   jobs,
		byName: byName,
	}
}

// NewPlacementService builds a standalone decision service for the
// given jobs on a synthetic cluster. The workload options (WithSeed,
// WithScale, WithReplication, WithStorageSubset) shape the cluster and
// its block placements exactly as New does; the scheduler options
// (WithPmin, WithEstimator, WithDeterministic, WithCostMode) configure
// the decision rule. Observers attached with WithObserver receive the
// decision events with their C / C_avg / P breakdown. WithJournal
// attaches a crash-safe delta journal; see RecoverPlacementService.
func NewPlacementService(cfg ClusterConfig, defs []JobDef, opts ...Option) (*PlacementService, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	parts, err := buildPlacementParts(cfg, defs, o)
	if err != nil {
		return nil, err
	}
	svc, err := placement.NewService(parts.deps)
	if err != nil {
		return nil, err
	}
	jobs, byName, err := parts.buildJobs()
	if err != nil {
		return nil, err
	}
	p := parts.wire(svc, jobs, byName)
	// Jobs are created before the journal attaches: initial block
	// placement is part of the deterministic base a recovery rebuilds,
	// not a journaled delta.
	if o.journal != nil {
		if err := svc.StartJournal(o.journal); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Epoch returns the number of state deltas applied so far.
func (p *PlacementService) Epoch() uint64 { return p.svc.Epoch() }

// requestAt refreshes the service's decision request for a new offer.
func (p *PlacementService) requestAt(now float64) *placement.Request {
	v := p.svc.Snapshot()
	p.req.Now = sim.Time(now)
	p.req.Jobs = p.jobs
	p.req.AvailMap, p.req.AvailReduce = v.AvailMap, v.AvailReduce
	p.req.Slowstart = engine.Slowstart
	return &p.req
}

// DecideMap runs Algorithm 1 for a free map slot on node at time now
// and returns the decision with its full breakdown. The decision does
// not change any state: call Commit to take it.
func (p *PlacementService) DecideMap(now float64, node int) PlacementDecision {
	m, out := p.dec.PlaceMap(p.requestAt(now), topology.NodeID(node))
	d := decisionOf(out, node, "map")
	if m != nil {
		d.Assigned, d.Job, d.Task = true, m.Job.Spec.Name, m.Index
	}
	return d
}

// DecideReduce runs Algorithm 2 for a free reduce slot on node at time
// now. Reduce decisions consume the jobs' current map progress, which
// advances through Complete.
func (p *PlacementService) DecideReduce(now float64, node int) PlacementDecision {
	r, out := p.dec.PlaceReduce(p.requestAt(now), topology.NodeID(node))
	d := decisionOf(out, node, "reduce")
	if r != nil {
		d.Assigned, d.Job, d.Task = true, r.Job.Spec.Name, r.Index
	}
	return d
}

// decisionOf copies an internal outcome into the public breakdown.
func decisionOf(out placement.Outcome, node int, kind string) PlacementDecision {
	return PlacementDecision{
		Kind: kind, Node: node,
		C: out.C, CAvg: out.CAvg, P: out.P, PMin: out.PMin,
		Draw: out.Draw, Epoch: out.Epoch,
	}
}

// taskRef is a decision's task as the façade moves it: the transitions
// MapTask and ReduceTask share and the slot kind it occupies.
type taskRef struct {
	lifecycle
	kind job.TaskKind
}

// state reads the task's current lifecycle state.
func (t taskRef) state() job.TaskState {
	if m, ok := t.lifecycle.(*job.MapTask); ok {
		return m.State
	}
	return t.lifecycle.(*job.ReduceTask).State
}

// lifecycle is the pair of transitions the façade drives on a task.
type lifecycle interface {
	Run(n topology.NodeID, at sim.Time)
	Complete(at sim.Time)
}

// task resolves a decision back to its task.
func (p *PlacementService) task(d PlacementDecision) (taskRef, error) {
	if !d.Assigned {
		return taskRef{}, fmt.Errorf("mapsched: decision placed no task")
	}
	j := p.byName[d.Job]
	if j == nil {
		return taskRef{}, fmt.Errorf("mapsched: unknown job %q", d.Job)
	}
	if d.Kind == "map" {
		if d.Task < 0 || d.Task >= len(j.Maps) {
			return taskRef{}, fmt.Errorf("mapsched: job %q has no map %d", d.Job, d.Task)
		}
		return taskRef{j.Maps[d.Task], job.MapKind}, nil
	}
	if d.Task < 0 || d.Task >= len(j.Reduces) {
		return taskRef{}, fmt.Errorf("mapsched: job %q has no reduce %d", d.Job, d.Task)
	}
	return taskRef{j.Reduces[d.Task], job.ReduceKind}, nil
}

// taskNote encodes the client half of a committed or completed
// decision into the journal annotation RecoverPlacementService parses
// back.
func taskNote(d PlacementDecision) string {
	return fmt.Sprintf("%q %d", d.Job, d.Task)
}

// expect is the validation hook of Commit and Complete: the decision's
// task must be in state want.
func expect(t taskRef, d PlacementDecision, want job.TaskState) func() error {
	return func() error {
		if t.state() != want {
			return fmt.Errorf("mapsched: %s %d of %q is not %s", d.Kind, d.Task, d.Job, want)
		}
		return nil
	}
}

// Commit takes an assigned decision: the task starts running on the
// decision's node and the slot is acquired, as one journaled delta.
// Committing a task that is not pending, or onto a node with no free
// slot (or offline/blacklisted), is rejected with a typed error and no
// state change.
func (p *PlacementService) Commit(d PlacementDecision) error {
	t, err := p.task(d)
	if err != nil {
		return err
	}
	n := topology.NodeID(d.Node)
	// The service has no clock: task times stay zero.
	return p.svc.ApplySlotAcquireNoted(t.kind, n, taskNote(d), expect(t, d, job.TaskPending),
		func() { t.Run(n, 0) })
}

// Complete finishes a committed task: it is marked done and its slot
// released, as one journaled delta. Completing a task that is not
// running is rejected with no state change.
func (p *PlacementService) Complete(d PlacementDecision) error {
	t, err := p.task(d)
	if err != nil {
		return err
	}
	return p.svc.ApplySlotReleaseNoted(t.kind, topology.NodeID(d.Node), taskNote(d), expect(t, d, job.TaskRunning),
		func() { t.Complete(0) })
}

// SetNodeOffline marks a node dead (offline=true) or revived: an
// offline node offers no slots and drops out of every candidate set.
func (p *PlacementService) SetNodeOffline(node int, offline bool) error {
	return p.svc.ApplyNodeOffline(topology.NodeID(node), offline)
}

// SetNodeBlacklisted marks a node as taking no new tasks (running ones
// keep their slots), or clears the mark.
func (p *PlacementService) SetNodeBlacklisted(node int, blacklisted bool) error {
	return p.svc.ApplyNodeBlacklist(topology.NodeID(node), blacklisted)
}

// SetLinkFactor rescales a node's host access link capacity (1 restores
// nominal); network-condition costs see the change immediately.
func (p *PlacementService) SetLinkFactor(node int, factor float64) error {
	if factor <= 0 {
		return fmt.Errorf("mapsched: link factor %v must be positive", factor)
	}
	return p.svc.ApplyLinkFactor(topology.NodeID(node), factor)
}

// LoseNodeReplicas drops every block replica hosted on a node (it died
// with its disks) and returns how many were lost. Map costs reroute to
// the surviving replicas on the next decision.
func (p *PlacementService) LoseNodeReplicas(node int) (int, error) {
	return p.svc.ApplyNodeReplicaLoss(topology.NodeID(node))
}

// WriteCheckpoint writes a CRC-protected full-state snapshot of the
// service (slot usage, node health, link factors, replica sets, delta
// epoch, and every running and done task) as one line to w. A
// checkpoint plus the journal records past its epoch is a complete
// RecoverPlacementService input; callers typically checkpoint
// periodically and rotate the journal at the same cut.
func (p *PlacementService) WriteCheckpoint(w io.Writer) error {
	return p.svc.WriteCheckpoint(w, p.taskStates)
}

// taskStates lists every running and done task, one `kind node "job"
// index state` line each: the client half of a checkpoint, which
// RecoverPlacementService restores before replaying journal notes.
func (p *PlacementService) taskStates() string {
	var b strings.Builder
	for _, j := range p.jobs {
		for _, m := range j.Maps {
			if m.State != job.TaskPending {
				fmt.Fprintf(&b, "map %d %q %d %s\n", m.Node, j.Spec.Name, m.Index, m.State)
			}
		}
		for _, r := range j.Reduces {
			if r.State != job.TaskPending {
				fmt.Fprintf(&b, "reduce %d %q %d %s\n", r.Node, j.Spec.Name, r.Index, r.State)
			}
		}
	}
	return b.String()
}

// restoreTask replays one recorded task transition during recovery:
// the task runs on node, and is done too when done is set.
func (p *PlacementService) restoreTask(kind string, node int, name string, idx int, done bool) error {
	t, err := p.task(PlacementDecision{Assigned: true, Kind: kind, Node: node, Job: name, Task: idx})
	if err != nil {
		return err
	}
	t.Run(topology.NodeID(node), 0)
	if done {
		t.Complete(0)
	}
	return nil
}

// PlacementRecovery reports how a RecoverPlacementService call rebuilt
// the service.
type PlacementRecovery struct {
	// Epoch is the recovered delta epoch; CheckpointEpoch the epoch the
	// checkpoint captured (0 without one).
	Epoch, CheckpointEpoch uint64
	// Applied and Skipped count journal records re-applied and records
	// already covered by the checkpoint.
	Applied, Skipped int
	// Tail is nil when the journal decoded cleanly; otherwise a typed
	// error (a truncated tail is the normal crash shape) and the state
	// recovered to the last valid record.
	Tail error
	// ValidBytes is the byte length of the journal's valid line prefix:
	// truncate the journal to it before appending.
	ValidBytes int64
}

// RecoverPlacementService rebuilds a crashed placement service from the
// checkpoint and/or delta journal it wrote, given the same cfg, defs
// and options the original was built with (the deterministic base the
// durable state applies over). Task and job progress is restored from
// the checkpoint's task list and the journaled Commit/Complete
// annotations past it. Either reader may be nil.
//
// Pass WithJournal to resume journaling: the recovered service writes a
// begin marker and every later delta to it. Either point it at a fresh
// journal and write a fresh checkpoint, or append to the original
// journal truncated to ValidBytes — the new records must follow the
// last valid line, because a record appended after a torn tail joins
// the torn line and the next recovery stops there. A journal that
// added nothing past the checkpoint (Applied is 0) may end behind
// Epoch; rotate it instead of appending.
//
// The recovered service's cluster state and decision inputs are
// bit-identical to the crashed one's. The decision session itself
// restarts, which re-seeds the Bernoulli draw stream — so the
// post-recovery decision stream is guaranteed bit-identical to the
// uninterrupted run under WithDeterministic (no draws); with draws the
// decisions are identically distributed but may resolve differently.
func RecoverPlacementService(cfg ClusterConfig, defs []JobDef, checkpoint, journal io.Reader, opts ...Option) (*PlacementService, *PlacementRecovery, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, nil, err
	}
	parts, err := buildPlacementParts(cfg, defs, o)
	if err != nil {
		return nil, nil, err
	}
	// The jobs (and their blocks) are the deterministic base the durable
	// state applies over: build them before restoring the checkpoint.
	jobs, byName, err := parts.buildJobs()
	if err != nil {
		return nil, nil, err
	}
	rec, err := placement.Recover(parts.deps, checkpoint, journal)
	if err != nil {
		return nil, nil, err
	}
	p := parts.wire(rec.Service, jobs, byName)
	// Rebuild the client half: the checkpoint's task list, then the
	// notes written by Commit (acquire) and Complete (release) past it,
	// in order. The slot half was already restored by Recover.
	for _, line := range strings.Split(strings.TrimSuffix(rec.CheckpointNote, "\n"), "\n") {
		if line == "" {
			continue
		}
		var kind, name, state string
		var node, idx int
		if _, err := fmt.Sscanf(line, "%s %d %q %d %s", &kind, &node, &name, &idx, &state); err != nil {
			return nil, nil, fmt.Errorf("mapsched: checkpoint: bad task line %q: %v", line, err)
		}
		done := state == job.TaskDone.String()
		if !done && state != job.TaskRunning.String() {
			return nil, nil, fmt.Errorf("mapsched: checkpoint: task line %q: state %q", line, state)
		}
		if err := p.restoreTask(kind, node, name, idx, done); err != nil {
			return nil, nil, fmt.Errorf("mapsched: checkpoint: %w", err)
		}
	}
	for _, note := range rec.Notes {
		var name string
		var idx int
		if _, err := fmt.Sscanf(note.Note, "%q %d", &name, &idx); err != nil {
			return nil, nil, fmt.Errorf("mapsched: seq %d: bad task note %q: %v", note.Seq, note.Note, err)
		}
		if err := p.restoreTask(note.Kind, note.Node, name, idx, note.Op == placement.OpRelease); err != nil {
			return nil, nil, fmt.Errorf("mapsched: seq %d: %w", note.Seq, err)
		}
	}
	if o.journal != nil {
		if err := rec.Service.StartJournal(o.journal); err != nil {
			return nil, nil, err
		}
	}
	return p, &PlacementRecovery{
		Epoch:           rec.Epoch,
		CheckpointEpoch: rec.CheckpointEpoch,
		Applied:         rec.Applied,
		Skipped:         rec.Skipped,
		Tail:            rec.Tail,
		ValidBytes:      rec.JournalValidBytes,
	}, nil
}

// ErrNotReplayable marks recordings outside the replayable envelope
// (fault, open-system or network-condition streams): match with
// errors.Is to distinguish "this stream cannot be verified" from a
// malformed input.
//
//lint:sentinel
var ErrNotReplayable = errors.New("mapsched: stream not replayable")

// ReplayReport summarizes a Replay: how many recorded map decisions were
// re-derived engine-free and whether any disagreed with the recording.
type ReplayReport struct {
	// Events is the total number of stream events consumed.
	Events int
	// MapDecisions is the number of recorded map decision events
	// (offer / assign / skip with a breakdown) that were re-derived.
	MapDecisions int
	// Deltas is the number of lifecycle events applied as Commit or
	// Complete deltas.
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

// Replay re-derives the map placement decisions of a recorded event
// log (a JSONLSink stream read back with ReadEventLog) without running
// the simulation. It is a client of the placement service: the service
// is built by NewPlacementService from the same configuration, defs and
// options the recording ran with (the seed forks make block placement a
// pure function of them), every recorded task_start / task_finish is
// applied as Commit / Complete, and every recorded map decision's task
// and C / C_avg / P breakdown is recomputed and checked bit-for-bit.
// The applied lifecycle goes through the façade's validated, journaled
// delta path, so WithJournal records exactly the journal a live service
// would write for the same transitions.
//
// Replay is exact for map decisions of hop-cost, fault-free,
// closed-batch probabilistic runs: map costs are a pure function of
// block placement and slot availability, both of which the stream
// reconstructs. Reduce decisions depend on continuously-evolving task
// progress (the A_jf estimates) that heartbeat streams do not record,
// so they are skipped. Replay applies job_submit, job_finish,
// task_start and task_finish, checks task_offer, task_assign and
// task_skip, and ignores flow_start, flow_finish and flow_rate. Every
// other event type — faults, open-system arrivals, admissions and
// preemptions, or a type it does not know — moves slots or jobs outside
// the recorded task lifecycle, so such a stream is rejected
// (ErrNotReplayable) rather than replayed wrong.
func Replay(cfg ClusterConfig, defs []JobDef, events []Event, opts ...Option) (*ReplayReport, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	if o.costModeSet {
		cfg.CostMode = o.costMode
	}
	if cfg.CostMode != ModeHops {
		return nil, fmt.Errorf("%w: only hop-cost recordings are replayable", ErrNotReplayable)
	}
	p, err := NewPlacementService(cfg, defs, opts...)
	if err != nil {
		return nil, err
	}

	rep := &ReplayReport{Events: len(events)}
	mismatch := func(i int, ev *Event, format string, args ...any) {
		if len(rep.Mismatches) >= maxMismatches {
			return
		}
		head := fmt.Sprintf("event %d (%s %s t=%.3f): ", i, ev.Type, ev.Job, ev.T)
		rep.Mismatches = append(rep.Mismatches, head+fmt.Sprintf(format, args...))
	}
	// The engine submits the batch in spec order (Submit = position ×
	// stagger), so the jobs NewPlacementService built up front are the
	// submission sequence; active mirrors the engine's live job list.
	submitted := 0
	var active []*job.Job

	for i := range events {
		ev := &events[i]
		switch ev.Type {
		case obs.JobSubmit:
			if submitted == len(p.jobs) || p.jobs[submitted].Spec.Name != ev.Job {
				return nil, fmt.Errorf("mapsched: replay: event %d: job_submit %q is not the next job of the batch", i, ev.Job)
			}
			active = append(active, p.jobs[submitted])
			submitted++

		case obs.JobFinish:
			active = slices.DeleteFunc(active, func(j *job.Job) bool { return j.Spec.Name == ev.Job })

		case obs.TaskStart, obs.TaskFinish:
			if j := p.byName[ev.Job]; j == nil || int(j.ID) > submitted || ev.Task == nil {
				return nil, fmt.Errorf("mapsched: replay: event %d: %s for unknown job %q", i, ev.Type, ev.Job)
			}
			d := PlacementDecision{Assigned: true, Node: ev.Node, Job: ev.Job, Kind: ev.Task.Kind, Task: ev.Task.Index}
			apply := p.Complete
			if ev.Type == obs.TaskStart {
				apply = p.Commit
			}
			if err := apply(d); err != nil {
				return nil, fmt.Errorf("mapsched: replay: event %d: %w", i, err)
			}
			rep.Deltas++

		case obs.TaskOffer, obs.TaskAssign, obs.TaskSkip:
			if ev.Task == nil || ev.Task.Kind != "map" || ev.Task.Index < 0 {
				continue // reduce decisions carry unrecorded progress state
			}
			if ev.Decision == nil {
				return nil, fmt.Errorf("mapsched: replay: event %d: map decision without a breakdown (not a probabilistic recording)", i)
			}
			rep.MapDecisions++
			req := p.requestAt(ev.T)
			req.Jobs = active
			e := p.dec.EvaluateMap(req, topology.NodeID(ev.Node))

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

		case obs.FlowStart, obs.FlowFinish, obs.FlowRate:
			// Flow-level events carry no placement state (flow_rate only
			// appears in logs of older builds).

		default:
			// Fault, open-system and any other events move slots or jobs
			// outside the recorded batch's task lifecycle.
			return nil, fmt.Errorf("%w: event %d: %s streams move slots or jobs outside the recorded task lifecycle", ErrNotReplayable, i, ev.Type)
		}
	}
	return rep, nil
}
