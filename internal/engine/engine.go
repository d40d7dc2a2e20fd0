// Package engine is the simulation driver: it wires the topology, block
// store, slot model and a task-level scheduler into a JobTracker that
// reacts to TaskTracker heartbeats, executes map/shuffle/reduce phases
// over the flow-level network, and collects the metrics the paper's
// evaluation reports. Every node computes at the same nominal speed, as on
// the paper's homogeneous testbed, and a running task has exactly one
// attempt. The engine also models Hadoop's recovery from TaskTracker
// (node) failures with realistic detection semantics — a crashed node
// dies physically at the fault time (its tasks stop, its heartbeats
// cease) but the JobTracker reacts only after a heartbeat-expiry lag,
// then re-executes lost work, retries failed attempts up to a cap and
// blacklists repeat-offender nodes. The fault script itself lives in
// internal/faults.
package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"mapsched/internal/cluster"
	"mapsched/internal/core"
	"mapsched/internal/faults"
	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/metrics"
	"mapsched/internal/obs"
	"mapsched/internal/placement"
	"mapsched/internal/sched"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
)

// Config describes one simulated cluster run.
type Config struct {
	// Topology is the physical cluster shape. The default mirrors the
	// paper's testbed: 60 nodes in one rack.
	Topology topology.Spec
	// MapSlotsPerNode and ReduceSlotsPerNode follow the paper's setup
	// ("4 map slots and 2 reduce slots per node").
	MapSlotsPerNode    int
	ReduceSlotsPerNode int
	// HeartbeatInterval is the TaskTracker heartbeat period in seconds
	// (Hadoop 1.x default: 3 s).
	HeartbeatInterval float64
	// Seed makes the whole run reproducible.
	Seed int64
	// CostMode selects hop-count or network-condition distances for the
	// cost model handed to the scheduler.
	CostMode core.Mode
	// CrossTraffic injects this many persistent background flows between
	// random node pairs, exercising the network-condition experiments.
	CrossTraffic int
	// MaxSimTime aborts the run at this simulated horizon (seconds); jobs
	// still unfinished are reported in Result.Unfinished. Zero means the
	// default of 24 simulated hours.
	MaxSimTime float64

	// Faults is the deterministic fault-injection plan: scripted crashes,
	// slowdowns, link degradations and replica losses plus the transient
	// attempt-failure process and retry/blacklist policy. The zero plan
	// disables injection entirely and the run is bit-identical to one
	// without the fault layer.
	Faults faults.Plan

	// HeartbeatExpiry is how long after a node stops heartbeating the
	// JobTracker declares it dead and starts recovery (slot reclamation,
	// task re-execution, replica pruning). Zero means the Hadoop-style
	// default of 10 × HeartbeatInterval.
	HeartbeatExpiry float64

	// Open configures the open-system mode: a continuous arrival stream
	// feeding per-tenant queues with weighted admission control and
	// optional kill-and-requeue preemption (DESIGN.md §18). The zero
	// value keeps the classic closed-system (fixed-batch) behavior and
	// the run is bit-identical to one before the layer existed.
	Open OpenSystem
}

// Task-execution parameters that every run shares.
const (
	// Slowstart is the map-progress fraction gating reduce launches.
	Slowstart = 0.05
	// shuffleParallelism bounds concurrent fetch flows per reduce task
	// (Hadoop's parallel copiers).
	shuffleParallelism = 3
	// TaskOverhead is the fixed per-task startup cost in seconds (JVM
	// spawn, task setup).
	TaskOverhead = 1.0
)

// DefaultConfig returns the paper's experimental setup.
func DefaultConfig() Config {
	return Config{
		Topology:           topology.DefaultSpec(),
		MapSlotsPerNode:    4,
		ReduceSlotsPerNode: 2,
		HeartbeatInterval:  3,
		Seed:               1,
		CostMode:           core.ModeHops,
		MaxSimTime:         86400,
	}
}

// Validate reports whether the configuration is usable. The float checks
// are written so that NaN fails them, and every float must be finite.
func (c Config) Validate() error {
	if c.MapSlotsPerNode < 1 || c.ReduceSlotsPerNode < 1 {
		return fmt.Errorf("engine: slots per node must be >= 1")
	}
	if !(c.HeartbeatInterval > 0 && c.HeartbeatInterval <= math.MaxFloat64) {
		return fmt.Errorf("engine: heartbeat interval %v must be finite and positive", c.HeartbeatInterval)
	}
	if c.CrossTraffic < 0 {
		return fmt.Errorf("engine: negative cross traffic")
	}
	if !(c.MaxSimTime >= 0 && c.MaxSimTime <= math.MaxFloat64) {
		return fmt.Errorf("engine: horizon %v must be finite and >= 0", c.MaxSimTime)
	}
	if !(c.HeartbeatExpiry >= 0 && c.HeartbeatExpiry <= math.MaxFloat64) {
		return fmt.Errorf("engine: heartbeat expiry %v must be finite and >= 0", c.HeartbeatExpiry)
	}
	if err := c.Faults.Validate(c.Topology.Racks * c.Topology.NodesPerRack); err != nil {
		return err
	}
	if err := c.Open.Validate(); err != nil {
		return err
	}
	return nil
}

// taskRef names one task: its job, its kind and its index in the job's
// task list of that kind.
type taskRef struct {
	j     *job.Job
	kind  job.TaskKind
	index int
}

func mapRef(m *job.MapTask) taskRef       { return taskRef{m.Job, job.MapKind, m.Index} }
func reduceRef(r *job.ReduceTask) taskRef { return taskRef{r.Job, job.ReduceKind, r.Index} }

func (t taskRef) mapTask() *job.MapTask       { return t.j.Maps[t.index] }
func (t taskRef) reduceTask() *job.ReduceTask { return t.j.Reduces[t.index] }

// attempt is the execution of a running task on its node; a task runs
// one attempt at a time. A map attempt streams its input from a replica
// while it computes. A reduce attempt first shuffles every map's output
// for its partition, then computes. A killed attempt is dead: one that
// died with a crashed node stays in its job's record until detection
// reverts the task. Attempts are pooled per kind (see pool.go): the bound
// callbacks and a reduce attempt's shuffle storage persist across lives,
// everything else is per-life state.
type attempt struct {
	task         taskRef
	node         topology.NodeID
	computeStart sim.Time
	computeDur   float64
	computeEv    sim.Event // compute completion, or a reduce's scripted failure
	dead         bool

	// Map attempts: the input stream and the transient-failure timer.
	fetch       *topology.Flow
	fetchSrc    topology.NodeID // replica the input streams from
	fetchDone   bool
	computeDone bool
	failEv      sim.Event // scripted transient failure, if drawn

	// Reduce attempts: the shuffle, then the compute phase.
	pendingSrc map[topology.NodeID]*srcBucket
	queue      []topology.NodeID     // FIFO of sources with pending bytes
	flights    []*flight             // in-flight fetches, at most shuffleParallelism
	got        map[*job.MapTask]bool // output enqueued, fetched or in flight
	computing  bool
	failFrac   float64 // > 0: scripted transient failure at this compute fraction

	fetchFn   func() //lint:pooled-keep bound once: input stream completion (maps)
	computeFn func() //lint:pooled-keep bound once: compute phase completion
	failFn    func() //lint:pooled-keep bound once: scripted transient failure
}

// progress returns a map attempt's compute progress in [0, 1).
func (a *attempt) progress(now sim.Time) float64 {
	if a.dead || a.computeDur <= 0 {
		return 0
	}
	p := float64(now-a.computeStart) / a.computeDur
	if p < 0 {
		p = 0
	}
	if p > 0.999999 {
		p = 0.999999
	}
	return p
}

// srcBucket aggregates queued shuffle bytes by source node, remembering
// which maps contributed (for failure recovery).
type srcBucket struct {
	bytes float64
	maps  []*job.MapTask
}

// flight is an in-progress shuffle fetch. Flights are pooled (see
// pool.go): doneFn persists across lives.
type flight struct {
	att    *attempt
	src    topology.NodeID
	bytes  float64
	maps   []*job.MapTask
	flow   *topology.Flow
	doneFn func() //lint:pooled-keep bound once: fetch flow completion
}

// jobRec is the engine's record of one job, live from submit until
// onJobEnd, including while a preempted job waits in its tenant queue.
// Here and in Simulation, per-kind arrays are indexed by job.TaskKind.
type jobRec struct {
	runs      [2][]*attempt           // running tasks' attempts by index; nil when not running
	fails     [2][]int                // transient failures per task (attempt cap); nil until the first
	nodeFails map[topology.NodeID]int // attempt failures per node (blacklist); nil until the first
	open      *openJob                // tenancy; nil for fixed-spec jobs
}

// tracker is the engine's record of one TaskTracker, indexed by node ID.
// Its heartbeat chain re-arms the embedded beat event with beatFn, bound
// once per node.
type tracker struct {
	beat    sim.Event
	beatFn  func()
	crashed bool    // physically dead since the crash instant: attempts stopped, heartbeats ceased
	held    [2]int  // slots of crash-killed attempts awaiting detection, by kind
	speed   float64 // compute-speed multiplier (1 = nominal)
}

// Simulation is one configured run.
type Simulation struct {
	cfg   Config
	eng   *sim.Engine
	topo  *topology.Cluster
	store *hdfs.Store
	state *cluster.State
	place *placement.Service
	sch   sched.Scheduler
	obs   *obs.Stream

	rngEngine *sim.RNG
	rngJobs   *sim.RNG
	rngFaults *sim.RNG

	specs  []job.Spec
	jobs   []*job.Job
	active []*job.Job
	// recs holds each job's record at index ID-1, nil outside submit to
	// onJobEnd; walks visit running tasks in (job, index) order through it.
	recs []*jobRec
	// trackers holds each node's record, allocated by Run.
	trackers []tracker

	// Free lists for the pooled hot-path records (pool.go).
	freeAtts    [2][]*attempt
	freeBuckets []*srcBucket
	freeFlights []*flight

	// ctx is the scheduler context reused across every offer; buildCtx
	// refreshes its fields in place so the per-offer snapshot allocates
	// nothing and the context's internal scratch buffers persist.
	ctx sched.Context

	// Failure state. A crashed tracker is physically dead, but the
	// JobTracker's bookkeeping is untouched until its heartbeat expiry
	// lapses; the node is then Offline in the placement service (slots
	// reclaimed, work re-queued), which also holds the Blacklisted flags.
	hbExpiry float64
	// blacklistHolds counts, per blacklisted node, the active jobs whose
	// failure tally crossed the threshold; the last holder's teardown
	// releases the node back into the candidate sets (DESIGN.md §18).
	blacklistHolds  map[topology.NodeID]int
	everBlacklisted int // cumulative blacklist entries over the run

	// Open-system state (opensys.go). Zero/nil in closed-system runs.
	openOn         bool
	tenants        []*tenantState
	tenantOf       map[string]*tenantState
	specsSubmitted int // fixed-path submissions fired so far
	openSubmitted  int // arrival-stream jobs instantiated so far
	arrivalsFired  int
	openActiveN    int // admitted open-system jobs currently in the system
	admitSeq       int
	preemptions    int
	rejectedJobs   int

	// Steady-state slot-utilization averages, tracked from the warm-up
	// instant on (open-system mode only).
	ssStarted            bool
	lastUtilM, lastUtilR float64
	utilMapSS            metrics.TimeAvg
	utilRedSS            metrics.TimeAvg

	utilMap    metrics.TimeAvg
	utilReduce metrics.TimeAvg

	times [2][]float64 // per-task running times
	ran   bool

	mapRemoteBytes     float64 // map input fetched across the network
	shuffleRemoteBytes float64 // intermediate data moved across the network
	shuffleLocalBytes  float64 // intermediate data served from local disk

	relaunchedMaps    int // done maps re-executed after node failure
	relaunchedReduces int // running reduces restarted after node failure
	attemptFailures   int // transient attempt failures injected
}

// New builds a simulation over the given job specs and scheduler builder.
func New(cfg Config, specs []job.Spec, builder sched.Builder) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(specs) == 0 && !cfg.Open.Enabled() {
		return nil, fmt.Errorf("engine: no job specs")
	}
	if builder == nil {
		return nil, fmt.Errorf("engine: nil scheduler builder")
	}
	if cfg.MaxSimTime == 0 {
		cfg.MaxSimTime = 86400
	}
	eng := sim.NewEngine()
	eng.SetEventLimit(200_000_000)
	topo, err := topology.NewCluster(eng, cfg.Topology)
	if err != nil {
		return nil, err
	}
	root := sim.NewRNG(cfg.Seed)
	store := hdfs.NewStore(topo, root.Fork("hdfs"))
	state, err := cluster.New(topo.Size(), cfg.MapSlotsPerNode, cfg.ReduceSlotsPerNode)
	if err != nil {
		return nil, err
	}
	// The placement decision service wraps the simulation's live state;
	// the schedulers route every decision through Decider sessions
	// against it, and the engine applies every slot, node-health, link
	// and replica change to that state as a Service delta. In hop mode
	// it also has the cluster state count free slots per rack
	// incrementally, so the schedulers' rack-collapsed C_avg sums are
	// O(racks) per offer.
	place, err := placement.NewService(placement.Deps{
		Net:   topo,
		Store: store,
		Slots: state,
		Mode:  cfg.CostMode,
	})
	if err != nil {
		return nil, err
	}
	s := &Simulation{
		cfg:       cfg,
		eng:       eng,
		topo:      topo,
		store:     store,
		state:     state,
		place:     place,
		rngEngine: root.Fork("engine"),
		rngJobs:   root.Fork("jobs"),
		specs:     specs,
		obs:       obs.NewStream(),
	}
	s.blacklistHolds = make(map[topology.NodeID]int)
	s.initOpen()
	s.hbExpiry = cfg.HeartbeatExpiry
	if s.hbExpiry == 0 {
		s.hbExpiry = 10 * cfg.HeartbeatInterval
	}
	topo.Net().SetStream(s.obs)
	s.sch = builder(sched.Env{Place: place, RNG: root.Fork("sched"), Obs: s.obs})
	if s.sch == nil {
		return nil, fmt.Errorf("engine: builder returned nil scheduler")
	}
	s.rngFaults = root.Fork("faults")
	return s, nil
}

// Attach subscribes an observer to the simulation's event stream. It must
// be called before Run: attaching mid-run would see a stream missing its
// prefix, which defeats the reproducibility guarantee.
func (s *Simulation) Attach(o obs.Observer) error {
	if s.ran {
		return fmt.Errorf("engine: Attach after Run")
	}
	if o == nil {
		return fmt.Errorf("engine: Attach of nil observer")
	}
	s.obs.Attach(o)
	return nil
}

// taskEvent seeds a task-lifecycle observation.
func (s *Simulation) taskEvent(typ obs.Type, node topology.NodeID, t taskRef) obs.Event {
	return obs.Event{
		T:    float64(s.eng.Now()),
		Type: typ,
		Node: int(node),
		Job:  t.j.Spec.Name,
		Task: &obs.TaskRef{Kind: t.kind.String(), Index: t.index},
	}
}

// Jobs exposes the instantiated jobs after Run, for invariant checks.
func (s *Simulation) Jobs() []*job.Job { return s.jobs }

// Run executes the simulation to completion (or the horizon) and returns
// the collected metrics. Run may be called once.
func (s *Simulation) Run() (*Result, error) {
	if s.ran {
		return nil, fmt.Errorf("engine: Run called twice")
	}
	s.ran = true

	// Background cross-traffic between distinct random pairs.
	for i := 0; i < s.cfg.CrossTraffic; i++ {
		src := topology.NodeID(s.rngEngine.Intn(s.topo.Size()))
		dst := topology.NodeID(s.rngEngine.Intn(s.topo.Size()))
		if src == dst {
			dst = topology.NodeID((int(dst) + 1) % s.topo.Size())
		}
		s.topo.InjectCrossTraffic(src, dst)
	}

	// Job submissions. Open-system arrivals are scheduled from the same
	// loop position, so a pure-arrival run assigns its events the exact
	// sequence numbers a fixed-batch run would — the t=0 equivalence
	// guarantee depends on this.
	for i := range s.specs {
		spec := s.specs[i]
		id := job.ID(i + 1)
		s.eng.Schedule(spec.Submit, func() {
			s.specsSubmitted++
			s.submit(id, spec)
		})
	}
	for i := range s.cfg.Open.Arrivals {
		a := s.cfg.Open.Arrivals[i]
		s.eng.Schedule(a.At, func() { s.arrive(a) })
	}

	// Scheduled faults. Crashes route through crashNode, which kills the
	// node physically and arms the heartbeat-expiry timer for
	// JobTracker-side recovery.
	s.scheduleFaults()

	// Heartbeat chains, phase-offset per node so offers do not synchronize.
	interval := s.cfg.HeartbeatInterval
	s.trackers = make([]tracker, s.topo.Size())
	for i := range s.trackers {
		t, n := &s.trackers[i], topology.NodeID(i)
		t.speed = 1
		t.beatFn = func() { s.heartbeat(n) }
		offset := interval * float64(i) / float64(len(s.trackers))
		s.eng.Reschedule(&t.beat, sim.Time(offset), t.beatFn)
	}

	s.utilMap.Update(0, 0)
	s.utilReduce.Update(0, 0)

	if _, err := s.eng.Run(sim.Time(s.cfg.MaxSimTime)); err != nil {
		return nil, err
	}
	return s.collect(), nil
}

// submit instantiates a job (placing its input blocks) and activates it.
func (s *Simulation) submit(id job.ID, spec job.Spec) {
	j, err := job.New(id, spec, s.store, s.rngJobs)
	if err != nil {
		// Specs are validated by the builders; a failure here is a
		// programming error worth stopping the simulation for.
		panic(fmt.Sprintf("engine: submit %s: %v", spec.Name, err))
	}
	j.Submitted = s.eng.Now()
	s.jobs = append(s.jobs, j)
	s.active = append(s.active, j)
	if n := int(id) - len(s.recs); n > 0 {
		s.recs = append(s.recs, make([]*jobRec, n)...)
	}
	s.recs[id-1] = &jobRec{runs: [2][]*attempt{make([]*attempt, len(j.Maps)), make([]*attempt, len(j.Reduces))}}
	if s.obs.Enabled() {
		s.obs.Emit(obs.Event{T: float64(j.Submitted), Type: obs.JobSubmit, Node: -1, Job: j.Spec.Name})
	}
}

// rec returns j's record; nil once the job has left the system.
func (s *Simulation) rec(j *job.Job) *jobRec { return s.recs[j.ID-1] }

// eachRun calls fn on the attempt of every running task of kind k in
// (job, index) order. fn may stop its own task but no other.
func (s *Simulation) eachRun(k job.TaskKind, fn func(*attempt)) {
	for _, rec := range s.recs {
		if rec == nil {
			continue
		}
		for _, att := range rec.runs[k] {
			if att != nil {
				fn(att)
			}
		}
	}
}

// allDone reports whether every submitted job finished and no
// submissions, arrivals or queued work remain.
func (s *Simulation) allDone() bool {
	if len(s.active) > 0 || s.specsSubmitted < len(s.specs) {
		return false
	}
	if !s.openOn {
		return true
	}
	if s.arrivalsFired < len(s.cfg.Open.Arrivals) {
		return false
	}
	for _, t := range s.tenants {
		if len(t.queue) > 0 {
			return false
		}
	}
	return true
}

// heartbeat is one TaskTracker report: refresh progress, offer free slots
// to the scheduler, and re-arm the tracker's beat.
func (s *Simulation) heartbeat(n topology.NodeID) {
	t := &s.trackers[n]
	if s.allDone() || t.crashed {
		return // stop the chain
	}
	s.refreshProgress()
	node := s.state.Node(n)
	for node.FreeSlots(job.MapKind) > 0 {
		ctx := s.buildCtx()
		m := s.sch.AssignMap(ctx, n)
		if m == nil {
			break
		}
		if !s.launchMap(m, n) {
			break // unschedulable right now (e.g. all replicas dead)
		}
	}
	for node.FreeSlots(job.ReduceKind) > 0 {
		ctx := s.buildCtx()
		r := s.sch.AssignReduce(ctx, n)
		if r == nil {
			break
		}
		s.launchReduce(r, n)
	}
	s.eng.Reschedule(&t.beat, s.eng.Now()+sim.Time(s.cfg.HeartbeatInterval), t.beatFn)
}

// buildCtx snapshots the scheduler-visible cluster state into the
// simulation's single reused Context. Schedulers never retain the
// context beyond the Assign call, so in-place refresh is safe.
func (s *Simulation) buildCtx() *sched.Context {
	v := s.place.Snapshot()
	s.ctx.Now = s.eng.Now()
	s.ctx.Jobs = s.active
	s.ctx.AvailMap = v.AvailMap
	s.ctx.AvailReduce = v.AvailReduce
	s.ctx.Slowstart = Slowstart
	return &s.ctx
}

// refreshProgress updates the Progress field of every running map task to
// the current instant, so the scheduler's estimator sees fresh d_read and
// A_jf values, exactly as heartbeat-reported counters would provide.
//
// Progress is read only by reduce-side decisions (the slowstart gate,
// Coupling's pacing and the reduce estimators), and those run only for
// jobs with a pending reduce, so the walk is skipped when no active job
// has one. An attempt's progress is a function of the current instant,
// so a skipped refresh leaves nothing for a later one to catch up on.
func (s *Simulation) refreshProgress() {
	if !s.anyPendingReduce() {
		return
	}
	now := s.eng.Now()
	for _, j := range s.active {
		if j.Running(job.MapKind) == 0 {
			continue
		}
		for i, att := range s.rec(j).runs[job.MapKind] {
			if att != nil {
				j.Maps[i].Progress = att.progress(now)
			}
		}
	}
}

// anyPendingReduce reports whether some active job has a reduce task not
// yet launched.
func (s *Simulation) anyPendingReduce() bool {
	for _, j := range s.active {
		if j.HasPending(job.ReduceKind) {
			return true
		}
	}
	return false
}

// aliveNearest returns the closest live replica of the block, or ok=false
// when every replica's node has crashed (replicas on crashed nodes are
// physically unreadable even before the JobTracker detects the failure).
func (s *Simulation) aliveNearest(b hdfs.BlockID, from topology.NodeID) (topology.NodeID, bool) {
	best := topology.NodeID(-1)
	bestD := 0.0
	found := false
	for _, r := range s.store.Replicas(b) {
		if s.trackers[r].crashed {
			continue
		}
		d := s.topo.Distance(from, r)
		if !found || d < bestD {
			found = true
			bestD = d
			best = r
		}
	}
	return best, found
}

// mustApply panics on a rejected placement delta. The engine applies
// only deltas its own bookkeeping says are valid (the scheduler offered
// the node because it had a free slot), so a rejection is an engine bug.
func mustApply(err error) {
	if err != nil {
		panic(fmt.Sprintf("engine: %v", err))
	}
}

// acquireSlot takes a slot of kind k on node n for a new attempt and
// samples utilization.
func (s *Simulation) acquireSlot(k job.TaskKind, n topology.NodeID) {
	mustApply(s.place.ApplySlotAcquire(k, n))
	s.sampleUtil()
}

// releaseSlot frees a slot of kind k on node n.
func (s *Simulation) releaseSlot(k job.TaskKind, n topology.NodeID) {
	mustApply(s.place.ApplySlotRelease(k, n))
}

// launchMap starts map task m on node n. It reports false when the task
// cannot run (all replicas lost), leaving the task pending.
func (s *Simulation) launchMap(m *job.MapTask, n topology.NodeID) bool {
	if m.State != job.TaskPending {
		panic(fmt.Sprintf("engine: launching map %s/%d in state %v", m.Job.Spec.Name, m.Index, m.State))
	}
	if _, ok := s.aliveNearest(m.Block, n); !ok {
		return false
	}
	s.acquireSlot(job.MapKind, n)
	m.Run(n, s.eng.Now())
	m.Locality = core.Locality(s.topo, s.store, m, n)
	s.startRun(mapRef(m), n, m.Locality)
	return true
}

// launchReduce starts reduce task r on node n.
func (s *Simulation) launchReduce(r *job.ReduceTask, n topology.NodeID) {
	if r.State != job.TaskPending {
		panic(fmt.Sprintf("engine: launching reduce %s/%d in state %v", r.Job.Spec.Name, r.Index, r.State))
	}
	s.acquireSlot(job.ReduceKind, n)
	r.Run(n, s.eng.Now())
	r.Locality = s.reduceLocality(r.Job, n)
	s.startRun(reduceRef(r), n, r.Locality)
}

// startRun reports the launch of task t on node n at locality loc and
// starts its attempt there. A map attempt streams its input from the
// nearest live replica while it computes; a reduce attempt starts by
// fetching the output of every finished map.
func (s *Simulation) startRun(t taskRef, n topology.NodeID, loc job.Locality) {
	now := s.eng.Now()
	if s.obs.Enabled() {
		e := s.taskEvent(obs.TaskStart, n, t)
		e.Locality = loc.String()
		e.Wait = float64(now - t.j.Submitted)
		s.obs.Emit(e)
	}
	att := s.newAttempt(t)
	att.node = n
	s.rec(t.j).runs[t.kind][t.index] = att
	if t.kind == job.ReduceKind {
		if p := s.cfg.Faults.TaskFailProb; p > 0 && s.rngFaults.Bernoulli(p) {
			// Reduce compute duration is unknown until the shuffle drains,
			// so remember the failure point as a fraction of the eventual
			// compute phase. Strictly positive so the failure event fires
			// mid-phase. The conversion stops a fused multiply-add.
			att.failFrac = 0.05 + float64(0.9*s.rngFaults.Float64())
		}
		s.enqueueDoneMaps(t.reduceTask(), att)
		s.pumpShuffle(att)
		s.maybeStartReduceCompute(att)
		return
	}
	m := t.mapTask()
	prof := m.Job.Spec.Profile
	src, _ := s.aliveNearest(m.Block, n) // caller checked ok
	if src != n {
		s.mapRemoteBytes += m.Size
	}
	att.fetchSrc = src
	att.fetch = s.topo.Transfer(src, n, m.Size, att.fetchFn)
	att.computeStart = now
	att.computeDur = TaskOverhead +
		s.rngEngine.Jitter(m.Size/(prof.MapRate*s.trackers[n].speed), prof.ComputeJitter)
	s.eng.Reschedule(&att.computeEv, now+sim.Time(att.computeDur), att.computeFn)
	// Transient attempt failure: a Bernoulli draw per attempt, failing at
	// a uniform point of the compute phase (always before the completion
	// event, so a selected attempt cannot win the task).
	if p := s.cfg.Faults.TaskFailProb; p > 0 && s.rngFaults.Bernoulli(p) {
		failAt := s.rngFaults.Float64() * att.computeDur
		s.eng.Reschedule(&att.failEv, now+sim.Time(failAt), att.failFn)
	}
}

// checkAttempt completes the map when its attempt has both streamed its
// input and finished computing.
func (s *Simulation) checkAttempt(att *attempt) {
	if att.fetchDone && att.computeDone {
		s.finishMap(att)
	}
}

// kill cancels an attempt — a map's input stream, a reduce's fetches,
// its compute or failure events — and releases its slot when its node
// is still alive (crashed nodes release bookkeeping at failure
// detection).
func (s *Simulation) kill(att *attempt, releaseSlot bool) {
	if att.dead {
		return
	}
	att.dead = true
	if att.fetch != nil {
		if !att.fetch.Finished() {
			s.topo.Net().Cancel(att.fetch)
		}
		s.topo.Net().Release(att.fetch)
		att.fetch = nil
	}
	slices.SortFunc(att.flights, func(a, b *flight) int {
		return cmp.Or(cmp.Compare(a.bytes, b.bytes), cmp.Compare(a.src, b.src))
	})
	for _, fl := range att.flights {
		s.topo.Net().Cancel(fl.flow)
		s.topo.Net().Release(fl.flow)
		s.releaseFlight(fl)
	}
	clear(att.flights)
	att.flights = att.flights[:0]
	s.eng.Remove(&att.computeEv)
	s.eng.Remove(&att.failEv)
	if releaseSlot {
		s.releaseSlot(att.task.kind, att.node)
	}
}

// complete finishes att's task: the task is marked done, its slot is
// freed, and its running time feeds the metrics. The caller recycles the
// attempt.
func (s *Simulation) complete(att *attempt) {
	t := att.task
	att.dead = true // no further callbacks
	now := s.eng.Now()
	var dur float64
	var loc job.Locality
	if t.kind == job.MapKind {
		m := t.mapTask()
		m.Complete(now)
		dur, loc = float64(now-m.Launch), m.Locality
	} else {
		r := t.reduceTask()
		r.Complete(now)
		dur, loc = r.RunTime(), r.Locality
	}
	rec := s.rec(t.j)
	rec.runs[t.kind][t.index] = nil
	s.releaseSlot(t.kind, att.node)
	s.sampleUtil()
	s.times[t.kind] = append(s.times[t.kind], dur)
	if s.obs.Enabled() {
		e := s.taskEvent(obs.TaskFinish, att.node, t)
		e.Locality = loc.String()
		e.Dur = dur
		s.obs.Emit(e)
	}
}

// finishMap completes a map task and feeds its output to the job's
// running reduces. A map never ends its job: every job has a reduce,
// which computes only once every map is done.
func (s *Simulation) finishMap(att *attempt) {
	s.complete(att)
	m := att.task.mapTask()
	for _, ratt := range s.rec(m.Job).runs[job.ReduceKind] {
		if ratt == nil || ratt.dead || ratt.computing {
			continue
		}
		if bytes := m.Out[ratt.task.index]; bytes > 0 && !ratt.got[m] {
			s.enqueueFetch(ratt, m.Node, bytes, m)
		}
		s.pumpShuffle(ratt)
		s.maybeStartReduceCompute(ratt)
	}
	s.releaseAttempt(att)
}

// finishReduce completes a reduce task and finishes its job once that
// was the job's last task.
func (s *Simulation) finishReduce(att *attempt) {
	s.complete(att)
	if j := att.task.j; j.Done() {
		j.Finished = s.eng.Now()
		s.deactivate(j)
		if s.obs.Enabled() {
			e := obs.Event{T: float64(j.Finished), Type: obs.JobFinish, Node: -1, Job: j.Spec.Name}
			e.Dur = float64(j.Finished - j.Submitted)
			s.obs.Emit(e)
		}
		s.onJobEnd(j)
	}
	s.releaseAttempt(att)
}

// reduceLocality classifies a reduce placement: local node if the node
// already hosted a launched map of the job (it holds intermediate data),
// local rack if a launched map ran in the same rack, remote otherwise.
func (s *Simulation) reduceLocality(j *job.Job, n topology.NodeID) job.Locality {
	sameRack := false
	anyMap := false
	for _, m := range j.Maps {
		if m.State == job.TaskPending || m.Node < 0 {
			continue
		}
		anyMap = true
		if m.Node == n {
			return job.LocalNode
		}
		if s.topo.Rack(m.Node) == s.topo.Rack(n) {
			sameRack = true
		}
	}
	if sameRack {
		return job.LocalRack
	}
	if !anyMap {
		// No map launched yet: there is no data anywhere, so the placement
		// cannot be penalized; count it as local rack in a single-rack
		// cluster and remote otherwise only if multiple racks exist.
		if s.cfg.Topology.Racks == 1 {
			return job.LocalRack
		}
	}
	return job.Remote
}

// enqueueDoneMaps queues every finished map's output for a fresh reduce
// attempt. A finished map whose output node was already declared dead can
// never serve a fetch again — and no future detection sweep would clean a
// bucket queued under it — so its output counts as lost here: the map
// reverts to pending and its re-execution feeds this attempt on finish.
// Outputs on crashed-but-undetected nodes are queued normally; the
// JobTracker does not know yet, and the detection sweep reclaims them.
func (s *Simulation) enqueueDoneMaps(r *job.ReduceTask, att *attempt) {
	for _, m := range r.Job.Maps {
		if m.State != job.TaskDone {
			continue
		}
		bytes := m.Out[r.Index]
		if bytes <= 0 {
			continue
		}
		if s.state.Node(m.Node).Offline() {
			s.relaunchLostOutput(m)
			continue
		}
		s.enqueueFetch(att, m.Node, bytes, m)
	}
}

// enqueueFetch adds a map's bytes from src to a reduce attempt's shuffle
// queue, coalescing with bytes already queued from the same source.
func (s *Simulation) enqueueFetch(att *attempt, src topology.NodeID, bytes float64, m *job.MapTask) {
	b, ok := att.pendingSrc[src]
	if !ok {
		b = s.newBucket()
		att.pendingSrc[src] = b
		att.queue = append(att.queue, src)
	}
	b.bytes += bytes
	b.maps = append(b.maps, m)
	att.got[m] = true
}

// pumpShuffle starts fetch flows up to the parallelism bound for one
// reduce attempt.
func (s *Simulation) pumpShuffle(att *attempt) {
	for len(att.flights) < shuffleParallelism && len(att.queue) > 0 {
		// Sources whose TaskTracker crashed cannot serve a fetch, but the
		// JobTracker has not noticed yet: leave their entries queued
		// (blocking the compute phase) until failure detection drops them
		// and re-queues the contributing maps. Fetch from the first live
		// source instead.
		pick := -1
		for i, src := range att.queue {
			if !s.trackers[src].crashed {
				pick = i
				break
			}
		}
		if pick < 0 {
			break
		}
		src := att.queue[pick]
		att.queue = append(att.queue[:pick], att.queue[pick+1:]...)
		b, ok := att.pendingSrc[src]
		if !ok {
			continue // bucket was dropped by failure recovery
		}
		delete(att.pendingSrc, src)
		fl := s.newFlight(att)
		fl.src = src
		fl.bytes = b.bytes
		// The maps slice moves to the flight; the bucket must not keep an
		// alias or a recycled bucket would append into the flight's array.
		fl.maps = b.maps
		b.maps = nil
		s.releaseBucket(b)
		if src == att.node {
			s.shuffleLocalBytes += fl.bytes
		} else {
			s.shuffleRemoteBytes += fl.bytes
		}
		fl.flow = s.topo.Transfer(src, att.node, fl.bytes, fl.doneFn)
		att.flights = append(att.flights, fl)
	}
}

// maybeStartReduceCompute begins a reduce attempt's sort/reduce phase
// once every map of the job finished and its fetches drained.
func (s *Simulation) maybeStartReduceCompute(att *attempt) {
	r := att.task.reduceTask()
	j := r.Job
	if att.dead || att.computing || !j.MapsDone() ||
		len(att.flights) > 0 || len(att.queue) > 0 || len(att.pendingSrc) > 0 {
		return
	}
	att.computing = true
	prof := j.Spec.Profile
	dur := TaskOverhead +
		s.rngEngine.Jitter(r.ShuffledBytes/(prof.ReduceRate*s.trackers[att.node].speed), prof.ComputeJitter)
	now := s.eng.Now()
	att.computeStart = now
	att.computeDur = dur
	if att.failFrac > 0 {
		// A transiently failing attempt never reaches completion; its
		// scripted failure fires partway through the compute phase.
		s.eng.Reschedule(&att.computeEv, now+sim.Time(att.failFrac*dur), att.failFn)
		return
	}
	s.eng.Reschedule(&att.computeEv, now+sim.Time(dur), att.computeFn)
}

// deactivate drops j from the active job list.
func (s *Simulation) deactivate(j *job.Job) {
	for i, a := range s.active {
		if a == j {
			s.active = append(s.active[:i], s.active[i+1:]...)
			return
		}
	}
}

// outputStillNeeded reports whether any unfinished reduce of j still needs
// map m's output (i.e. produces bytes for it and its live attempt, if
// any, has not already fetched them).
func (s *Simulation) outputStillNeeded(j *job.Job, m *job.MapTask) bool {
	for _, r := range j.Reduces {
		if m.Out[r.Index] <= 0 {
			continue
		}
		switch r.State {
		case job.TaskDone:
			continue
		case job.TaskPending:
			return true
		case job.TaskRunning:
			if att := s.rec(j).runs[job.ReduceKind][r.Index]; att == nil || att.dead || !att.got[m] {
				return true
			}
		}
	}
	return false
}

// sampleUtil records slot occupancy for the utilization time-averages.
// In open-system mode a second pair of averages starts at the warm-up
// instant, so steady-state utilization excludes the fill-up transient.
func (s *Simulation) sampleUtil() {
	um, ur := s.state.UsedSlots()
	tm, tr := s.state.TotalSlots()
	now := float64(s.eng.Now())
	vm := float64(um) / float64(tm)
	vr := float64(ur) / float64(tr)
	s.utilMap.Update(now, vm)
	s.utilReduce.Update(now, vr)
	if s.openOn {
		if !s.ssStarted && now >= s.cfg.Open.Warmup {
			s.ssStarted = true
			s.utilMapSS.Update(s.cfg.Open.Warmup, s.lastUtilM)
			s.utilRedSS.Update(s.cfg.Open.Warmup, s.lastUtilR)
		}
		if s.ssStarted {
			s.utilMapSS.Update(now, vm)
			s.utilRedSS.Update(now, vr)
		}
		s.lastUtilM, s.lastUtilR = vm, vr
	}
}
