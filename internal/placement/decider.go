package placement

import (
	"fmt"

	"mapsched/internal/core"
	"mapsched/internal/job"
	"mapsched/internal/obs"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
)

// Config tunes the paper's probabilistic placement rule.
type Config struct {
	// Pmin is the probability threshold below which a slot is skipped
	// (Algorithm 1 line 10 / Algorithm 2 line 11). The paper tunes it to
	// 0.4 on its testbed.
	Pmin float64
	// Estimator predicts I_jf for reduce cost computation; nil means the
	// paper's progress-scaled estimator.
	Estimator core.Estimator
	// JobPolicy orders jobs; the paper's experiments use fair ordering.
	JobPolicy JobPolicy
	// Deterministic replaces the Bernoulli draw with an unconditional
	// assignment whenever P ≥ Pmin. Used by the ablation of Section II-C's
	// design choice ("rather than assigning the task with the lowest
	// transmission cost instantly ... we use such a probability").
	Deterministic bool
	// SpreadReduces enforces Algorithm 2 line 1: at most one running
	// reduce task of a job per node. On by default via DefaultConfig.
	SpreadReduces bool
	// Model converts (C_avg, C) into the assignment probability; nil means
	// the paper's exponential model (Formula 4). Section V calls the
	// exploration of alternative models out as future work.
	Model core.ProbabilityModel
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		Pmin:          0.4,
		Estimator:     core.ProgressScaled{},
		JobPolicy:     FairJobs,
		SpreadReduces: true,
	}
}

// JobPolicy orders jobs for task-level scheduling.
type JobPolicy int

// Job-level policies.
const (
	// FairJobs orders jobs by fewest running tasks of the requested kind
	// (Hadoop Fair Scheduler's equal-share special case, as used in the
	// paper's experiments), breaking ties by submission order.
	FairJobs JobPolicy = iota
	// FIFOJobs orders jobs strictly by submission order.
	FIFOJobs
)

// String names the policy.
func (p JobPolicy) String() string {
	if p == FIFOJobs {
		return "fifo"
	}
	return "fair"
}

// Request is the decision input for one slot offer: the live job set
// with its progress state, the availability snapshots (the N_m / N_r of
// Formulas 4–5, normally taken from Service.Snapshot), and the time the
// staleness of cached reduce costers is judged against. The embedded
// scratch buffers are reused across calls when the caller reuses the
// Request object, so a Request is single-client like the Decider.
type Request struct {
	Now  sim.Time
	Jobs []*job.Job // submitted, unfinished jobs in submission order

	// AvailMap / AvailReduce snapshot the nodes that currently have at
	// least one free slot of the kind, including the offered node, with
	// the identity version the cost caches key on (see core.Avail).
	AvailMap    core.Avail
	AvailReduce core.Avail

	// Slowstart is the map-progress fraction a job must reach before its
	// reduce tasks become schedulable (Hadoop's
	// mapred.reduce.slowstart.completed.maps, default 0.05).
	Slowstart float64

	// jobBuf and keyBuf are OrderJobs scratch, reused across offers when
	// the caller reuses the Request object. The slice returned by
	// OrderJobs is valid only until the next call.
	jobBuf []*job.Job
	keyBuf []int
}

// OrderJobs returns req.Jobs sorted under the policy for kind k,
// considering only jobs that still have pending tasks of that kind (and,
// for reduces, pass the slowstart gate). The returned slice is Request
// scratch: valid until the next OrderJobs call on the same Request, never
// retained by callers. The fair-policy sort is a stable insertion sort on
// per-job running-task counts read once — identical ordering to a stable
// sort with a recomputing comparator, without the comparator closure.
func OrderJobs(req *Request, policy JobPolicy, k job.TaskKind) []*job.Job {
	out := req.jobBuf[:0]
	for _, j := range req.Jobs {
		if j.HasPending(k) && (k == job.MapKind || reduceEligible(req, j)) {
			out = append(out, j)
		}
	}
	req.jobBuf = out
	if policy == FIFOJobs || len(out) < 2 {
		return out // req.Jobs is already in submission order
	}
	keys := req.keyBuf[:0]
	for _, j := range out {
		keys = append(keys, j.Running(k))
	}
	req.keyBuf = keys
	for i := 1; i < len(out); i++ {
		for p := i; p > 0 && keys[p] < keys[p-1]; p-- {
			keys[p], keys[p-1] = keys[p-1], keys[p]
			out[p], out[p-1] = out[p-1], out[p]
		}
	}
	return out
}

// reduceEligible applies the slowstart gate: a job's reduces may launch
// only once enough map work has completed.
func reduceEligible(req *Request, j *job.Job) bool {
	return j.MapProgress() >= req.Slowstart
}

// Outcome is the full decision breakdown for one placement request —
// the same C / C_avg / P / P_min / draw vocabulary the observer stream
// emits, plus the consistency markers of the concurrent contract.
type Outcome struct {
	// C, CAvg, P, PMin are the Formula 1–5 terms behind the decision;
	// zero-valued when no candidate was found.
	C, CAvg, P, PMin float64
	// Draw records how the decision resolved: "local", "local_fallback",
	// "accept", "deterministic", "below_pmin", "decline", or "" when no
	// candidate existed.
	Draw string
	// Epoch is the Service delta epoch the decision was computed at.
	Epoch uint64
	// Torn reports that the availability versions or delta epoch moved
	// while the decision held the read lock — impossible under the
	// locking contract, asserted by the concurrent stress test.
	Torn bool
	// Err is non-nil when the decision could not run at all — today only
	// ErrDeciderInvalid, from a Decider whose cost model failed to
	// build. No candidate was considered and no randomness consumed.
	Err error
}

// Decider is one client's decision session against a Service: it owns
// the per-client cost model (whose rack-collapse scratch buffers make
// it single-threaded), the incremental map/reduce cost caches, the RNG
// consumed by the Bernoulli gate, and the observer stream decisions are
// emitted to. A Decider is NOT safe for concurrent use; run one per
// deciding goroutine. Decisions hold the Service read lock end to end,
// so any number of Deciders decide concurrently against one Service
// while Apply* deltas serialize against them.
//
// rng and stream may be nil: a nil rng restricts the Decider to
// deterministic gates and gate-free evaluation (EvaluateMap), a nil
// stream disables emission.
type Decider struct {
	svc *Service
	cfg Config
	rng *sim.RNG
	obs *obs.Stream

	// err marks an invalid Decider (cost-model construction failed);
	// decision methods return it through Outcome.Err.
	err error

	cost *core.CostModel

	// costerCache memoizes per-job reduce costers for a short window:
	// heartbeat-reported progress moves slowly relative to the offer rate,
	// so rebuilding the O(maps x reduces) aggregation on every slot offer
	// only burns time (a real JobTracker caches these statistics too).
	// Entries of departed jobs are swept by sweep() at the start of
	// every decision. The bound is per decision, not per departure:
	// between two decisions — and the engine makes none while no job has
	// a pending task of the offered kind — the cache and
	// CostModel.MapRows() hold at most the jobs live at the last
	// decision, and the next decision evicts every one that has left
	// since.
	costerCache map[job.ID]costerEntry

	// swept is the job set the last sweep ran against — the jobs live
	// at the last decision, and so the most whose cached state (reduce
	// costers, map-cost rows) may outlive them until the next one. The
	// live list only ever appends strictly increasing job IDs, so an
	// unchanged (length, last ID) pair means the set itself is unchanged
	// and the sweep can be skipped.
	swept []*job.Job

	// mapCost evaluates Formula 1: the cost model itself, which a test
	// reference swaps for an uncached evaluator.
	mapCost core.MapCostEvaluator

	// mapBuf and redBuf hold one job's pending tasks during a candidate
	// scan, reused across decisions so the scan allocates nothing.
	mapBuf []*job.MapTask
	redBuf []*job.ReduceTask
}

// costerEntry is one cached reduce coster with its last refresh time.
type costerEntry struct {
	at sim.Time
	rc *core.ReduceCoster
}

// costerMaxAge is how long a cached coster stays fresh, in simulated
// seconds.
const costerMaxAge = 1.0

// NewDecider opens a decision session against svc. Zero-value estimator
// and model fall back to the paper's defaults.
func NewDecider(svc *Service, cfg Config, rng *sim.RNG, stream *obs.Stream) *Decider {
	if cfg.Estimator == nil {
		cfg.Estimator = core.ProgressScaled{}
	}
	if cfg.Model == nil {
		cfg.Model = core.Exponential{}
	}
	d := &Decider{
		svc:         svc,
		cfg:         cfg,
		rng:         rng,
		obs:         stream,
		costerCache: make(map[job.ID]costerEntry),
	}
	// Opening a session reads shared state (the store's distance epoch,
	// link factors), so it takes the service read lock: sessions may open
	// while delta writers are running.
	svc.mu.RLock()
	defer svc.mu.RUnlock()
	// The Service constructor validated the same inputs, so this cannot
	// fail today; each Decider gets its own model because its block
	// rows and scratch buffers are single-threaded. Should it ever
	// fail, the Decider is invalid: decisions surface
	// ErrDeciderInvalid through Outcome.Err instead of panicking.
	cost, err := core.NewCostModel(svc.net, svc.store, svc.mode)
	if err != nil {
		d.err = fmt.Errorf("%w: %v", ErrDeciderInvalid, err)
		return d
	}
	d.cost = cost
	d.mapCost = cost
	return d
}

// Err reports why the Decider is invalid (nil for a usable one).
func (d *Decider) Err() error { return d.err }

// Mode returns the service's distance interpretation.
func (d *Decider) Mode() core.Mode { return d.svc.mode }

// Locality classifies where m would run relative to its input replicas.
func (d *Decider) Locality(m *job.MapTask, node topology.NodeID) job.Locality {
	d.svc.mu.RLock()
	defer d.svc.mu.RUnlock()
	return core.Locality(d.svc.net, d.svc.store, m, node)
}

// NewReduceCoster builds a fresh, uncached reduce coster for j (the
// baseline schedulers' path; the probabilistic path caches via
// PlaceReduce). The returned coster reads shared service state and is
// therefore for single-threaded (embedded) use only.
func (d *Decider) NewReduceCoster(j *job.Job, est core.Estimator) *core.ReduceCoster {
	d.svc.mu.RLock()
	defer d.svc.mu.RUnlock()
	return d.cost.NewReduceCoster(j, est)
}

// coster returns a fresh-enough reduce coster for j. A stale coster is
// brought up to date incrementally (bit-identical to a rebuild, see
// core.ReduceCoster.Refresh).
func (d *Decider) coster(j *job.Job, now sim.Time) *core.ReduceCoster {
	if e, ok := d.costerCache[j.ID]; ok {
		if float64(now-e.at) < costerMaxAge {
			return e.rc
		}
		e.rc.Refresh()
		d.costerCache[j.ID] = costerEntry{at: now, rc: e.rc}
		return e.rc
	}
	rc := d.cost.NewReduceCoster(j, d.cfg.Estimator)
	d.costerCache[j.ID] = costerEntry{at: now, rc: rc}
	return rc
}

// sweep evicts cached state of jobs that left the live set (finished,
// failed or removed): the reduce-coster cache and the map-cost rows of
// every departed job, whether or not it ever reached a reduce decision.
// Evicted jobs are never offered slots again, and a re-filled row is
// bit-identical to the evicted one, so eviction cannot change a
// scheduling decision. It runs on every job-set change — detected by the
// (length, tail ID) signature of the append-ordered live list, whose IDs
// strictly increase — rather than only when the cache outgrows the live
// set: under balanced churn (one job finishing as another arrives) the
// sizes stay equal while dead entries pile up.
func (d *Decider) sweep(req *Request) {
	n := len(req.Jobs)
	if n == len(d.swept) && (n == 0 || req.Jobs[n-1].ID == d.swept[n-1].ID) && len(d.costerCache) <= n {
		return
	}
	live := make(map[job.ID]struct{}, n)
	for _, j := range req.Jobs {
		live[j.ID] = struct{}{}
	}
	for _, j := range d.swept {
		if _, ok := live[j.ID]; !ok {
			d.cost.ForgetMaps(j)
			delete(d.costerCache, j.ID)
		}
	}
	// A client list that breaks the append order can keep the skip
	// while costers join for jobs no swept set holds.
	for id, e := range d.costerCache {
		if _, ok := live[id]; !ok {
			d.cost.ForgetMaps(e.rc.Job())
			delete(d.costerCache, id)
		}
	}
	d.swept = append(d.swept[:0], req.Jobs...)
}

// consistency captures the markers the torn-snapshot check compares.
type consistency struct {
	mapV, reduceV uint64
	epoch         uint64
}

// observeLocked reads the consistency markers; caller holds the read
// lock.
func (d *Decider) observeLocked() consistency {
	_, mv := d.svc.slots.Avail(job.MapKind)
	_, rv := d.svc.slots.Avail(job.ReduceKind)
	return consistency{mapV: mv, reduceV: rv, epoch: d.svc.epoch}
}

// finishLocked closes out a decision's Outcome under the read lock:
// re-read the markers and flag a torn read if anything moved.
func (d *Decider) finishLocked(start consistency, out *Outcome) {
	end := d.observeLocked()
	out.Epoch = end.epoch
	out.Torn = end != start
}

// scanMaps runs the candidate scan on the offered node. Candidate tasks
// come from the fair-ordered job queue: a data-local best candidate
// (P = 1) from the fairest job stops the scan; otherwise the
// highest-saving candidate across jobs is kept for the gate along with
// the first data-local fallback found (a small local task can be
// out-saved by a large remote one). Scanning past the head job mirrors
// how Hadoop's job-level scheduler iterates jobs when the head job has
// nothing attractive for a node.
func (d *Decider) scanMaps(req *Request, node topology.NodeID) Evaluation {
	d.sweep(req)
	var s Evaluation
	for _, j := range OrderJobs(req, d.cfg.JobPolicy, job.MapKind) {
		d.mapBuf = j.AppendPendingMaps(d.mapBuf[:0])
		sel, ok := core.SelectMapTaskWith(d.mapCost, d.cfg.Model, d.mapBuf, node, req.AvailMap)
		if !ok {
			continue
		}
		c := sel.Best
		if c.Cost == 0 {
			// Data-local placement for the fairest job that has one:
			// assign instantly (Algorithm 1: P_mj = 1 when C = 0).
			s.Best, s.HasBest, s.InstantLocal = c, true, true
			return s
		}
		if sel.HasLocal() && !s.HasLocal {
			// Fallback from the fairest job that has a local candidate.
			s.Local = sel.Local
			s.HasLocal = true
		}
		if !s.HasBest || c.Saving() > s.Best.Saving() {
			s.Best = c
			s.HasBest = true
		}
	}
	return s
}

// Evaluation is the gate-free view of one map decision: what the
// candidate scan concluded before any randomness. The replay driver
// uses it to re-derive recorded decision breakdowns without consuming
// an RNG stream.
type Evaluation struct {
	// Best is the highest-saving candidate (or the instant data-local
	// winner when InstantLocal is set); valid when HasBest.
	Best core.Choice
	// Local is the first data-local fallback candidate; valid when
	// HasLocal. Never set when InstantLocal is.
	Local core.Choice
	// HasBest / HasLocal report which candidates exist.
	HasBest, HasLocal bool
	// InstantLocal marks a zero-cost best from the fairest job: assigned
	// immediately with P = 1, no gate.
	InstantLocal bool
}

// EvaluateMap runs Algorithm 1's candidate scan for a map slot offer on
// node, without the P_min / Bernoulli gate and without emitting events.
// It consumes no randomness, so it can be interleaved freely with
// recorded decision streams.
func (d *Decider) EvaluateMap(req *Request, node topology.NodeID) Evaluation {
	if d.err != nil {
		return Evaluation{}
	}
	d.svc.mu.RLock()
	defer d.svc.mu.RUnlock()
	return d.scanMaps(req, node)
}

// PlaceMap implements Algorithm 1 on the offered node: the candidate
// scan (see scanMaps), then the P_min threshold and Bernoulli draw for
// the highest-saving candidate. When the gate rejects it, the best
// data-local candidate found along the way is assigned instead —
// Algorithm 1's P = 1 rule never leaves the slot idle while a zero-cost
// placement exists. Returns the chosen task (nil when the slot stays
// idle) and the full decision breakdown.
func (d *Decider) PlaceMap(req *Request, node topology.NodeID) (m *job.MapTask, out Outcome) {
	if d.err != nil {
		out.Err = d.err
		return nil, out
	}
	d.svc.mu.RLock()
	defer d.svc.mu.RUnlock()
	start := d.observeLocked()
	// out is a named return: the deferred close-out must write the
	// Outcome the caller receives, not a by-value copy.
	defer d.finishLocked(start, &out)
	s := d.scanMaps(req, node)
	if s.InstantLocal {
		c := s.Best
		out.C, out.CAvg, out.P, out.PMin, out.Draw = 0, c.AvgCost, 1, d.cfg.Pmin, "local"
		if d.obs.Enabled() {
			d.emitChoiceLocked(req, node, obs.TaskAssign, c,
				&obs.Decision{C: 0, CAvg: c.AvgCost, P: 1, PMin: d.cfg.Pmin, Draw: "local"}, "")
		}
		return c.MapTask, out
	}
	if !s.HasBest {
		return nil, out
	}
	if t, ok := d.gateLocked(req, node, s.Best, &out); ok {
		return t.MapTask, out
	}
	if s.HasLocal {
		out.C, out.CAvg, out.P, out.PMin, out.Draw = 0, s.Local.AvgCost, 1, d.cfg.Pmin, "local_fallback"
		if d.obs.Enabled() {
			d.emitChoiceLocked(req, node, obs.TaskAssign, s.Local,
				&obs.Decision{C: 0, CAvg: s.Local.AvgCost, P: 1, PMin: d.cfg.Pmin, Draw: "local_fallback"}, "")
		}
		return s.Local.MapTask, out
	}
	return nil, out
}

// gateLocked runs the shared tail of Algorithms 1 and 2 under the read
// lock: the P_min threshold (lines 10-12 / 11-13) and the Bernoulli draw,
// emitting the offer / assign / skip events with the Formula 1-5
// breakdown when a sink is attached. The Bernoulli draw consumes exactly
// the same RNG stream whether or not observers are attached. best.Prob
// already carries the configured model's probability: SelectMapTaskWith
// and SelectReduceTask compute it only for the candidates they return,
// and the losers of their scans never get one.
func (d *Decider) gateLocked(req *Request, node topology.NodeID, best core.Choice, out *Outcome) (core.Choice, bool) {
	prob := best.Prob
	out.C, out.CAvg, out.P, out.PMin = best.Cost, best.AvgCost, prob, d.cfg.Pmin
	emit := d.obs.Enabled()
	if emit {
		d.emitChoiceLocked(req, node, obs.TaskOffer, best,
			&obs.Decision{C: best.Cost, CAvg: best.AvgCost, P: prob, PMin: d.cfg.Pmin}, "")
	}
	if prob < d.cfg.Pmin {
		out.Draw = "below_pmin"
		if emit {
			d.emitChoiceLocked(req, node, obs.TaskSkip, best,
				&obs.Decision{C: best.Cost, CAvg: best.AvgCost, P: prob, PMin: d.cfg.Pmin, Draw: "below_pmin"}, "below_pmin")
		}
		return best, false // skip this node
	}
	if d.cfg.Deterministic || d.rng.Bernoulli(prob) {
		draw := "accept"
		if d.cfg.Deterministic {
			draw = "deterministic"
		}
		out.Draw = draw
		if emit {
			d.emitChoiceLocked(req, node, obs.TaskAssign, best,
				&obs.Decision{C: best.Cost, CAvg: best.AvgCost, P: prob, PMin: d.cfg.Pmin, Draw: draw}, "")
		}
		return best, true
	}
	out.Draw = "decline"
	if emit {
		d.emitChoiceLocked(req, node, obs.TaskSkip, best,
			&obs.Decision{C: best.Cost, CAvg: best.AvgCost, P: prob, PMin: d.cfg.Pmin, Draw: "decline"}, "declined")
	}
	return best, false // Bernoulli declined: slot stays idle this round
}

// emitChoiceLocked publishes one decision event for the chosen candidate;
// caller holds the read lock.
func (d *Decider) emitChoiceLocked(req *Request, node topology.NodeID, t obs.Type, c core.Choice, dec *obs.Decision, reason string) {
	kind, idx := "map", 0
	var j *job.Job
	if c.MapTask != nil {
		j, idx = c.MapTask.Job, c.MapTask.Index
	} else {
		kind, j, idx = "reduce", c.ReduceTask.Job, c.ReduceTask.Index
	}
	e := obs.Event{
		T:    float64(req.Now),
		Type: t,
		Node: int(node),
		Job:  j.Spec.Name,
		Task: &obs.TaskRef{Kind: kind, Index: idx},
	}
	e.Decision = dec
	e.Reason = reason
	if t == obs.TaskAssign && c.MapTask != nil {
		e.Locality = core.Locality(d.svc.net, d.svc.store, c.MapTask, node).String()
	}
	d.obs.Emit(e)
}

// PlaceReduce implements Algorithm 2 on the offered node, pooling
// candidates across the fair-ordered job queue like PlaceMap.
func (d *Decider) PlaceReduce(req *Request, node topology.NodeID) (r *job.ReduceTask, out Outcome) {
	// The first pass honours Algorithm 2 line 1 (no second running reduce
	// of a job on one node); when that leaves the slot with no candidate
	// at all — e.g. the batch tail, where a single job's reduces outnumber
	// the cluster's nodes — a work-conserving second pass relaxes the
	// rule, as any deployed scheduler must for jobs with more reduces than
	// nodes.
	if d.err != nil {
		out.Err = d.err
		return nil, out
	}
	d.svc.mu.RLock()
	defer d.svc.mu.RUnlock()
	start := d.observeLocked()
	defer d.finishLocked(start, &out)
	d.sweep(req)
	best, found := d.selectReduce(req, node, d.cfg.SpreadReduces)
	if !found && d.cfg.SpreadReduces {
		best, found = d.selectReduce(req, node, false)
	}
	if !found {
		return nil, out
	}
	if t, ok := d.gateLocked(req, node, best, &out); ok {
		return t.ReduceTask, out
	}
	return nil, out
}

func (d *Decider) selectReduce(req *Request, node topology.NodeID, spread bool) (core.Choice, bool) {
	var best core.Choice
	found := false
	for _, j := range OrderJobs(req, d.cfg.JobPolicy, job.ReduceKind) {
		if spread && j.HasReduceOn(node) {
			continue // Algorithm 2 line 1
		}
		rc := d.coster(j, req.Now)
		d.redBuf = j.AppendPendingReduces(d.redBuf[:0])
		c, ok := core.SelectReduceTask(rc, d.cfg.Model, d.redBuf, node, req.AvailReduce)
		if !ok {
			continue
		}
		if !found || c.Saving() > best.Saving() {
			best = c
			found = true
		}
	}
	return best, found
}
