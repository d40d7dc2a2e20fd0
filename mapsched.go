// Package mapsched is a simulation library reproducing "Probabilistic
// Network-Aware Task Placement for MapReduce Scheduling" (Shen, Sarker,
// Yu, Deng — IEEE CLUSTER 2016).
//
// It bundles a deterministic discrete-event MapReduce cluster simulator —
// network topology with max-min fair bandwidth sharing, an HDFS-style
// replicated block store, slot-based TaskTrackers with heartbeats — and
// three task-level schedulers: the paper's probabilistic network-aware
// scheduler (Algorithms 1–2), Hadoop's Fair Scheduler with Delay
// Scheduling, and the Coupling Scheduler baseline.
//
// Quick start:
//
//	cfg := mapsched.DefaultClusterConfig()
//	cfg.Seed = 1
//	sim, err := mapsched.New(cfg, mapsched.Batch(mapsched.Wordcount),
//	        mapsched.SchedulerProbabilistic)
//	if err != nil { ... }
//	res, err := sim.Run()
//	if err != nil { ... }
//	fmt.Println(res.JobCompletionCDF().Quantile(0.5))
//
// Attach observers before Run to stream scheduler decisions (with the
// paper's C, C_avg, P breakdown), task lifecycle and network-flow events:
//
//	var buf bytes.Buffer
//	log := mapsched.NewJSONLSink(&buf)
//	sim, _ := mapsched.New(cfg, defs, kind, mapsched.WithObserver(log))
//	res, _ := sim.Run()
//	_ = log.Flush() // buf now holds one JSON event per line
//
// The internal/experiments package (driven by cmd/experiments and the
// root-level benchmarks) regenerates every table and figure of the
// paper's evaluation; see EXPERIMENTS.md.
package mapsched

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"mapsched/internal/core"
	"mapsched/internal/engine"
	"mapsched/internal/experiments"
	"mapsched/internal/faults"
	"mapsched/internal/hdfs"
	"mapsched/internal/obs"
	"mapsched/internal/placement"
	"mapsched/internal/trace"
	"mapsched/internal/workload"
)

// SchedulerKind selects one of the three schedulers the paper compares.
type SchedulerKind = experiments.SchedulerKind

// Scheduler kinds.
const (
	SchedulerProbabilistic = experiments.Probabilistic
	SchedulerCoupling      = experiments.Coupling
	SchedulerFair          = experiments.Fair
)

// Kind is a workload application class (Wordcount, Terasort, Grep).
type Kind = workload.Kind

// Workload classes of Table II.
const (
	Wordcount = workload.Wordcount
	Terasort  = workload.Terasort
	Grep      = workload.Grep
)

// JobDef is one Table II row; Result aggregates a run's metrics.
type (
	JobDef        = workload.JobDef
	Result        = engine.Result
	JobResult     = engine.JobResult
	ClusterConfig = engine.Config
)

// Fault-injection re-exports: a FaultPlan scripts node crashes, transient
// slowdowns, link degradations and replica losses, plus the stochastic
// per-attempt failure process and the retry/blacklist policy; install one
// as ClusterConfig.Faults. The zero FaultPlan injects nothing and runs
// are bit-identical to ones without it.
type (
	FaultPlan        = faults.Plan
	NodeCrash        = faults.NodeCrash
	NodeSlowdown     = faults.NodeSlowdown
	LinkDegradeFault = faults.LinkDegrade
	ReplicaLossFault = faults.ReplicaLoss
)

// ParseFaultPlan parses the command-line fault DSL, e.g.
// "crash:3@60;slow:7@30+120*2.5;link:4@10+40*0.1;taskfail:0.02".
func ParseFaultPlan(spec string) (FaultPlan, error) { return faults.ParseSpec(spec) }

// Open-system re-exports: an ArrivalPlan drives continuous job arrivals
// (Poisson per tenant and/or a scripted trace) into per-tenant queues
// with weighted admission control; see WithArrivals and WithTenants.
type (
	// Tenant declares one workload tenant: admission weight, Poisson
	// arrival rate, job mix and queue capacity.
	Tenant = workload.Tenant
	// TraceArrival scripts one job arrival at a fixed instant.
	TraceArrival = workload.TraceArrival
	// ArrivalPlan bundles the arrival horizon, warm-up window,
	// concurrency cap, preemption switch and scripted trace.
	ArrivalPlan = workload.ArrivalPlan
)

// ParseTenants parses the command-line tenant DSL, e.g.
// "gold:weight=3,rate=0.05;best-effort:rate=0.02,cap=8".
func ParseTenants(spec string) ([]Tenant, error) { return workload.ParseTenants(spec) }

// ParseArrivalPlan parses the command-line arrival-plan DSL, e.g.
// "horizon=600,warmup=60,maxactive=12,preempt=1".
func ParseArrivalPlan(spec string) (ArrivalPlan, error) { return workload.ParseArrivalPlan(spec) }

// CostMode selects hop-count or network-condition distances.
type CostMode = core.Mode

// Cost model modes (Section II-B).
const (
	ModeHops             = core.ModeHops
	ModeNetworkCondition = core.ModeNetworkCondition
)

// DefaultClusterConfig returns the paper's testbed shape: 60 single-rack
// nodes with 4 map and 2 reduce slots each, 3-second heartbeats, and
// hop-count costs.
func DefaultClusterConfig() ClusterConfig { return engine.DefaultConfig() }

// TestbedSetup returns the calibrated experiment environment used to
// regenerate the paper's tables and figures (shared-platform bandwidth,
// network-condition cost mode, background cross-traffic); see DESIGN.md
// for the calibration rationale.
func TestbedSetup() experiments.Setup { return experiments.DefaultSetup() }

// TableII returns all 30 job definitions of the paper's Table II.
func TableII() []JobDef { return workload.TableII() }

// Batch returns the 10-job batch of one application class.
func Batch(k Kind) []JobDef { return workload.Batch(k) }

// ParseBatch parses a command-line workload name in any case: wordcount
// (wc), terasort (ts) or grep for one class's batch, or all for the
// whole of Table II.
func ParseBatch(name string) ([]JobDef, error) {
	switch strings.ToLower(name) {
	case "wordcount", "wc":
		return Batch(Wordcount), nil
	case "terasort", "ts":
		return Batch(Terasort), nil
	case "grep":
		return Batch(Grep), nil
	case "all":
		return TableII(), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// options collects New's functional options. The run settings the
// cluster config carries (seed, cost mode, cross traffic, fault plan,
// heartbeat expiry) are set there and only there. The journal, arrival
// and tenant options carry set flags: an explicit zero value of each is
// an input distinct from "not specified".
type options struct {
	pmin          float64
	scale         int
	replication   int
	estimator     core.Estimator
	deterministic bool
	storageSubset int
	observers     []obs.Observer
	journal       io.Writer
	journalSet    bool
	arrivalPlan   workload.ArrivalPlan
	arrivalsSet   bool
	tenants       []workload.Tenant
	tenantsSet    bool
}

// Option customizes New, NewPlacementService and Replay.
type Option func(*options)

// ErrInvalidOption is wrapped by every option domain error New,
// NewPlacementService and Replay return and by every configuration
// domain error New returns, so callers can match the whole class with
// errors.Is.
var ErrInvalidOption = errors.New("invalid option")

// buildOptions applies opts over the defaults and validates every value
// against its domain; violations wrap ErrInvalidOption.
func buildOptions(opts []Option) (options, error) {
	o := options{pmin: 0.4, scale: 6, replication: 2}
	for _, apply := range opts {
		apply(&o)
	}
	// The float checks are written so that NaN fails them.
	switch {
	case !(o.pmin >= 0 && o.pmin <= 1):
		return o, fmt.Errorf("mapsched: %w: Pmin %v outside [0,1]", ErrInvalidOption, o.pmin)
	case o.scale < 1:
		return o, fmt.Errorf("mapsched: %w: scale %d must be >= 1", ErrInvalidOption, o.scale)
	case o.replication < 1:
		return o, fmt.Errorf("mapsched: %w: replication %d must be >= 1", ErrInvalidOption, o.replication)
	case o.storageSubset < 0:
		return o, fmt.Errorf("mapsched: %w: negative storage subset %d", ErrInvalidOption, o.storageSubset)
	case o.journalSet && o.journal == nil:
		return o, fmt.Errorf("mapsched: %w: nil journal writer", ErrInvalidOption)
	case o.tenantsSet && !o.arrivalsSet:
		return o, fmt.Errorf("mapsched: %w: WithTenants requires WithArrivals", ErrInvalidOption)
	}
	if o.arrivalsSet {
		if err := o.arrivalPlan.Validate(); err != nil {
			return o, fmt.Errorf("mapsched: %w: %v", ErrInvalidOption, err)
		}
		for _, t := range o.tenants {
			if err := t.Validate(); err != nil {
				return o, fmt.Errorf("mapsched: %w: %v", ErrInvalidOption, err)
			}
		}
	}
	return o, nil
}

// placementConfig derives the decision config from the options: New's
// probabilistic scheduler, the standalone placement service and Replay
// all decide under it.
func (o *options) placementConfig() placement.Config {
	pc := placement.DefaultConfig()
	pc.Pmin = o.pmin
	pc.Deterministic = o.deterministic
	if o.estimator != nil {
		pc.Estimator = o.estimator
	}
	return pc
}

// workloadOptions derives the workload shaping from the options.
func (o *options) workloadOptions() workload.Options {
	wo := workload.Options{
		Scale:         o.scale,
		Replication:   o.replication,
		SubmitStagger: 1,
	}
	if o.storageSubset > 0 {
		wo.Placement = hdfs.Subset{K: o.storageSubset}
	}
	return wo
}

// WithPmin sets the probabilistic scheduler's threshold (default 0.4).
func WithPmin(p float64) Option { return func(o *options) { o.pmin = p } }

// WithScale divides workload sizes and task counts (default 6); 1
// reproduces Table II counts exactly at full cost.
func WithScale(s int) Option { return func(o *options) { o.scale = s } }

// WithReplication sets the HDFS replication factor (default 2).
func WithReplication(r int) Option { return func(o *options) { o.replication = r } }

// WithEstimator overrides the intermediate-data estimator used by the
// probabilistic scheduler (default: the paper's progress-scaled one).
func WithEstimator(e core.Estimator) Option { return func(o *options) { o.estimator = e } }

// WithDeterministic replaces the Bernoulli assignment with greedy
// minimum-cost assignment (the Section II-C ablation).
func WithDeterministic() Option { return func(o *options) { o.deterministic = true } }

// WithStorageSubset confines all input-block replicas to the first k
// nodes, modelling NAS/SAN-style storage on a subset of the cluster (the
// scenario the paper's introduction motivates). 0, the default, places
// replicas on the whole cluster.
func WithStorageSubset(k int) Option { return func(o *options) { o.storageSubset = k } }

// WithJournal attaches a crash-safe delta journal to a placement
// service: every state delta (Commit, Complete, node health, links,
// replicas) is appended to w as a CRC-protected JSONL record before it
// applies. Together with WriteCheckpoint the journal lets
// RecoverPlacementService rebuild the service after a crash. Its
// consumers are NewPlacementService, RecoverPlacementService and Replay;
// New rejects it with ErrInvalidOption.
func WithJournal(w io.Writer) Option {
	return func(o *options) { o.journal = w; o.journalSet = true }
}

// WithArrivals switches the run into open-system mode: instead of (or in
// addition to) a fixed batch, jobs arrive continuously following the
// plan's Poisson streams and scripted trace, queue per tenant, and are
// admitted under the weighted policy declared via WithTenants. The
// stream is deterministic in the seed: each tenant draws from its own
// forked RNG, so adding a tenant never shifts another tenant's
// arrivals. With an empty defs slice New runs on arrivals alone.
func WithArrivals(plan ArrivalPlan) Option {
	return func(o *options) { o.arrivalPlan = plan; o.arrivalsSet = true }
}

// WithTenants declares the tenants of an open-system run (requires
// WithArrivals). Arrivals naming tenants not declared here are admitted
// under a default weight-1, unbounded-queue policy.
func WithTenants(tenants ...Tenant) Option {
	return func(o *options) { o.tenants = append(o.tenants, tenants...); o.tenantsSet = true }
}

// WithObserver attaches an event sink at construction time; equivalent to
// calling Simulation.Attach before Run. May be given several times.
func WithObserver(o Observer) Option {
	return func(opts *options) { opts.observers = append(opts.observers, o) }
}

// Trace is a JSON-exportable task timeline of a run.
type Trace = trace.Trace

// Observability re-exports: the event stream types and built-in sinks of
// internal/obs, so observers can be written against the public package.
type (
	// Observer consumes simulation events; see WithObserver and
	// Simulation.Attach.
	Observer = obs.Observer
	// Event is one observation of the stream.
	Event = obs.Event
	// EventType enumerates the event kinds (obs.TaskAssign, ...).
	EventType = obs.Type
	// DecisionInfo is the Formula 1-5 breakdown behind one scheduling
	// decision (C, C_avg, P, P_min, draw outcome).
	DecisionInfo = obs.Decision
	// ObserverFunc adapts a plain function to the Observer interface.
	ObserverFunc = obs.Func
	// JSONLSink streams events as one JSON object per line.
	JSONLSink = obs.JSONL
	// SummarySink folds the stream into counters and histograms.
	SummarySink = obs.Summary
)

// NewJSONLSink returns an event-log sink writing one JSON object per
// event to w. Call Flush after the run to drain the buffer and collect
// the first encoding or write error.
func NewJSONLSink(w io.Writer) *JSONLSink { return obs.NewJSONL(w) }

// NewSummarySink returns a streaming-metrics sink (locality hit rate,
// skip rate, queue waits, per-link volume).
func NewSummarySink() *SummarySink { return obs.NewSummary() }

// ReadEventLog parses a log written by a JSONLSink.
func ReadEventLog(r io.Reader) ([]Event, error) { return obs.ReadJSONL(r) }

// Simulation is one configured run: construct with New, optionally
// Attach observers, then Run once and read Result / Trace.
type Simulation struct {
	sim *engine.Simulation
	res *engine.Result
}

// New builds a simulation of the given jobs on a cluster under the chosen
// scheduler. The configuration is validated here, so errors surface
// before any observer or runtime state exists; an invalid cfg wraps
// ErrInvalidOption.
func New(cfg ClusterConfig, defs []JobDef, kind SchedulerKind, opts ...Option) (*Simulation, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("mapsched: %w: %v", ErrInvalidOption, err)
	}
	if len(defs) == 0 && !o.arrivalsSet {
		return nil, fmt.Errorf("mapsched: no jobs to run")
	}
	if o.journalSet {
		return nil, fmt.Errorf("mapsched: %w: a simulation does not journal; WithJournal is for placement services", ErrInvalidOption)
	}
	specs, err := workload.Specs(defs, o.workloadOptions())
	if err != nil {
		return nil, err
	}
	if o.arrivalsSet {
		cfg.Open, err = experiments.OpenSystem(o.arrivalPlan, o.tenants, cfg.Seed, o.workloadOptions())
		if err != nil {
			return nil, fmt.Errorf("mapsched: %w: %v", ErrInvalidOption, err)
		}
	}
	builder, err := experiments.Builder(kind, o.placementConfig())
	if err != nil {
		return nil, fmt.Errorf("mapsched: %w", err)
	}
	eng, err := engine.New(cfg, specs, builder)
	if err != nil {
		return nil, err
	}
	s := &Simulation{sim: eng}
	for _, ob := range o.observers {
		if err := s.Attach(ob); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Attach subscribes an observer to the simulation's event stream; it must
// happen before Run. Attached observers receive scheduler decisions,
// task lifecycle and flow events synchronously, in simulation order, and
// never influence the run: results are bit-identical with or without
// observers.
func (s *Simulation) Attach(o Observer) error { return s.sim.Attach(o) }

// Run executes the simulation to completion (or the configured horizon)
// and returns the collected metrics. Run may be called once.
func (s *Simulation) Run() (*Result, error) {
	res, err := s.sim.Run()
	if err != nil {
		return nil, err
	}
	s.res = res
	return res, nil
}

// Result returns the metrics of a completed run, or an error when Run has
// not succeeded yet.
func (s *Simulation) Result() (*Result, error) {
	if s.res == nil {
		return nil, fmt.Errorf("mapsched: Result before a successful Run")
	}
	return s.res, nil
}

// Trace returns the task timeline of the simulation; call it after Run.
func (s *Simulation) Trace() *Trace { return s.sim.Trace() }
