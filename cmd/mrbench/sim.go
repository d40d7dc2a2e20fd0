//lint:allow nodeterminism wall-clock timing of simulation runs is the measurement; no reading feeds a simulation
package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"mapsched/internal/core"
	"mapsched/internal/engine"
	"mapsched/internal/experiments"
	"mapsched/internal/metrics"
	"mapsched/internal/obs"
	"mapsched/internal/sched"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
	"mapsched/internal/workload"
)

// simWorkload is a simulator workload. One repetition runs every listed
// closed batch back to back, or one open-system simulation, under the
// Probabilistic scheduler. The operation the metrics count is fixed by
// the seed before anything is simulated, so that a change to the
// simulator cannot change how many operations a repetition holds: a
// closed repetition is one operation, and an open-system repetition
// holds one operation per arriving job.
type simWorkload struct {
	setup func(seed int64) experiments.Setup
	kinds []workload.Kind // closed batches of one repetition
	open  bool            // an open-system run instead of closed batches
	// horizon, when non-zero, ends each simulation at this simulated
	// time; jobs still running then are expected, not failures.
	horizon float64
}

// benchSetup is the experiment environment every simulator workload
// starts from: the paper's 60-node testbed at the test-suite scale.
func benchSetup(seed int64) experiments.Setup {
	s := experiments.DefaultSetup()
	s.Workload.Scale = 12
	s.Engine.Seed = seed
	return s
}

// scaleHorizon is how many simulated seconds of the 5,000-node batch a
// repetition runs. At 5,000 nodes the host work is heartbeat offers,
// which grow with simulated time, and the batch's makespan spreads by
// 20% across seeds (127-174 s over seeds 1-20); up to a fixed horizon
// every seed does the same work, to within 0.1% of its allocations. By
// 30 s every map and reduce task of the batch has been launched (no job
// has finished yet); a repetition takes 1.5-2 s of host time, so a run
// holds about twelve.
const scaleHorizon = 30

// scaleSetup is the 5,000-node cell of the cluster-size sweep: 250 racks
// of 20 nodes, hop-count costs and no cross traffic, as
// experiments.ScaleSweep configures it.
func scaleSetup(seed int64) experiments.Setup {
	s := benchSetup(seed)
	s.Engine.CostMode = core.ModeHops
	s.Engine.CrossTraffic = 0
	s.Engine.Topology.Racks = 250
	s.Engine.Topology.NodesPerRack = 20
	return s
}

// openRho is the open-system load factor: busy enough that admission
// and preemption act, below the overload point.
const openRho = 0.9

const (
	// minReps is the fewest measured repetitions a run makes, whatever its
	// time budget: two unobserved ones, which the determinism check
	// compares, and an observed one.
	minReps = 3
	// obsEvery makes every obsEvery-th repetition an observed one, with a
	// JSONL observer writing to io.Discard (the `mrsim -events` path).
	// Interleaving puts both kinds under the same machine load.
	obsEvery = 3
)

// prepared is one repetition's simulations, built and ready to run.
type prepared struct {
	sims      []*engine.Simulation
	specs     []int    // job specs per closed simulation (0 for open)
	ops       float64  // operations in the repetition
	truncated bool     // the simulations end at the workload's horizon
	end       sim.Time // the simulations' MaxSimTime
	topo      topology.Spec
	inputsS   float64 // input generation: job specs or the arrival stream
	newS      float64 // engine.New
}

// prepare builds the simulations of one repetition. wrap, when non-nil,
// decorates the scheduler builder.
func (w simWorkload) prepare(seed int64, wrap func(sched.Builder) sched.Builder) (*prepared, error) {
	s := w.setup(seed)
	if w.horizon > 0 {
		s.Engine.MaxSimTime = w.horizon
	}
	builder := s.BuilderFor(experiments.Probabilistic)
	if wrap != nil {
		builder = wrap(builder)
	}
	p := &prepared{ops: 1, truncated: w.horizon > 0, end: sim.Time(s.Engine.MaxSimTime), topo: s.Engine.Topology}
	if w.open {
		t0 := time.Now()
		cfg, err := openConfig(s)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		run, err := engine.New(cfg, nil, builder)
		if err != nil {
			return nil, err
		}
		p.inputsS = t1.Sub(t0).Seconds()
		p.newS = time.Since(t1).Seconds()
		p.sims = append(p.sims, run)
		p.specs = append(p.specs, 0)
		p.ops = float64(len(cfg.Open.Arrivals))
		return p, nil
	}
	for _, kind := range w.kinds {
		t0 := time.Now()
		specs, err := workload.Specs(workload.Batch(kind), s.Workload)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		run, err := engine.New(s.Engine, specs, builder)
		if err != nil {
			return nil, err
		}
		p.inputsS += t1.Sub(t0).Seconds()
		p.newS += time.Since(t1).Seconds()
		p.sims = append(p.sims, run)
		p.specs = append(p.specs, len(specs))
	}
	return p, nil
}

// openConfig expands the open-system plan into an engine configuration
// exactly as experiments.Setup.RunOpen does, so that its input
// generation can be timed apart from engine.New.
func openConfig(s experiments.Setup) (engine.Config, error) {
	nodes := s.Engine.Topology.Racks * s.Engine.Topology.NodesPerRack
	plan := experiments.OpenPlan(nodes)
	tenants := experiments.CalibrateRates(experiments.OpenTenants(), openRho, s)
	arrivals, err := workload.BuildArrivals(plan, tenants, s.Engine.Seed, s.Workload)
	if err != nil {
		return engine.Config{}, err
	}
	cfg := s.Engine
	open := engine.OpenSystem{MaxActive: plan.MaxActive, Preempt: plan.Preempt, Warmup: plan.Warmup}
	for _, t := range tenants {
		open.Tenants = append(open.Tenants, engine.TenantPolicy{Name: t.Name, Weight: t.Weight, QueueCap: t.QueueCap})
	}
	open.Arrivals = make([]engine.Arrival, len(arrivals))
	for i, a := range arrivals {
		open.Arrivals[i] = engine.Arrival{At: sim.Time(a.At), Tenant: a.Tenant, Spec: a.Spec}
	}
	cfg.Open = open
	return cfg, nil
}

// attach subscribes o to every simulation of the operation.
func (p *prepared) attach(o obs.Observer) error {
	for _, s := range p.sims {
		if err := s.Attach(o); err != nil {
			return err
		}
	}
	return nil
}

// simOutcome is what one operation's simulations produced: the simulated
// results every repetition of a seed must reproduce exactly, and the job
// accounting that feeds the failure count.
type simOutcome struct {
	events     uint64
	simSeconds float64 // makespans, summed over the simulations
	finished   int     // jobs that finished
	meanJCT    float64 // simulated seconds over every finished job; 0 when none did
	tasksDone  int     // map and reduce tasks that finished
	remoteGB   float64 // map input and shuffle data sent across the network
	nodeLocal  float64 // % of launched map tasks that read a local block
	jctP50     float64 // steady-state sojourn quantiles (open system only)
	jctP95     float64
	admitted   int
	rejected   int
	preempted  int

	attempted int // jobs the repetition had to run
	failed    int // jobs failed, or unfinished when the run was to finish them
}

// run executes the prepared simulations in order and folds their results.
func (p *prepared) run() (simOutcome, error) {
	var out simOutcome
	var jcts []float64
	var loc metrics.LocalityCount
	for i, s := range p.sims {
		res, err := s.Run()
		if err != nil {
			return out, err
		}
		out.events += res.Events
		out.simSeconds += res.Makespan
		out.tasksDone += len(res.MapTimes) + len(res.ReduceTimes)
		out.remoteGB += (res.MapRemoteBytes + res.ShuffleRemoteBytes) / 1e9
		jcts = append(jcts, res.CompletionTimes()...)
		loc.Merge(res.MapLocality)
		attempted := len(res.Jobs)
		if p.specs[i] > attempted {
			attempted = p.specs[i] // never-submitted jobs count as attempted
		}
		out.failed += res.FailedJobs
		if !p.truncated {
			out.failed += res.Unfinished
		}
		for _, t := range res.Tenants {
			attempted += t.QueuedAtEnd // admitted never: the queue did not drain
			out.failed += t.QueuedAtEnd
			out.admitted += t.Admitted
		}
		out.attempted += attempted
		out.rejected += res.RejectedJobs
		out.preempted += res.Preemptions
		if res.OpenSystem {
			steady := metrics.NewCDF(res.SteadyJCTs())
			out.jctP50 = steady.Quantile(0.50)
			out.jctP95 = simTail(steady)
		}
	}
	out.finished = len(jcts)
	if out.finished > 0 {
		out.meanJCT = metrics.NewCDF(jcts).Mean()
	}
	out.nodeLocal = loc.PercentNode()
	return out, nil
}

// simTail is the highest of p95, p90 and p75 of a simulated-time sample
// that has at least ten samples above it, falling back to the median.
func simTail(c metrics.CDF) float64 {
	for _, q := range []float64{0.95, 0.90, 0.75} {
		if float64(c.N())*(1-q) >= 10 {
			return c.Quantile(q)
		}
	}
	return c.Quantile(0.50)
}

// sameSimulation reports how two runs of the same seed differ; a
// deterministic simulator makes them identical.
func sameSimulation(a, b simOutcome) error {
	if a.events != b.events || a.simSeconds != b.simSeconds || a.finished != b.finished || a.meanJCT != b.meanJCT ||
		a.tasksDone != b.tasksDone || a.remoteGB != b.remoteGB ||
		a.nodeLocal != b.nodeLocal || a.jctP50 != b.jctP50 || a.jctP95 != b.jctP95 {
		return fmt.Errorf("a repeat of the same seed differs: %d events, mean JCT %v vs %d, %v",
			a.events, a.meanJCT, b.events, b.meanJCT)
	}
	return nil
}

// repSample is the cost of one measured repetition.
type repSample struct {
	cost
	refS     float64 // wall time corrected to the reference speed
	speed    float64
	observed bool
}

// measure runs the workload for the time budget and reports its metrics:
// the end-to-end set from the untraced repetitions, and with o.trace the
// per-layer set from one more, traced repetition. The repetitions run
// beside the clock's background loop.
func (w simWorkload) measure(o options, r *report, clock *refClock) error {
	start := time.Now()
	budget := o.seconds
	if o.trace {
		budget /= 2 // leave room for the traced repetition and the replay
	}
	var ops float64
	su, err := timeSetup(clock, budget, func() (float64, float64, error) {
		p, err := w.prepare(o.seed, nil)
		if err != nil {
			return 0, 0, err
		}
		ops = p.ops
		return p.inputsS, p.newS, nil
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	clock.startLoop()
	defer clock.stop()

	var (
		reps  []repSample
		first simOutcome
		// The longest plain and observed repetitions so far: the next
		// repetition runs if one as long as the longest of its kind fits.
		longest [2]float64
	)
	heap := watchHeap()
	for i := 0; ; i++ {
		observed := i%obsEvery == obsEvery-1
		kind := 0
		if observed {
			kind = 1
		}
		if i >= minReps && time.Since(start).Seconds()+longest[kind] > budget {
			break
		}
		p, err := w.prepare(o.seed, nil)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		var sink *obs.JSONL
		if observed {
			sink = obs.NewJSONL(io.Discard)
			if err := p.attach(sink); err != nil {
				return err
			}
		}
		runtime.GC()
		clock.mark()
		c0 := readCounters()
		out, err := p.run()
		c := since(c0)
		iv := clock.read()
		if err != nil {
			return fmt.Errorf("run: %w", err)
		}
		iv.exclude(&c)
		if sink != nil {
			if err := sink.Flush(); err != nil {
				return err
			}
		}
		if i == 0 {
			first = out
		} else if err := sameSimulation(first, out); err != nil {
			r.fail("%v", err)
		}
		r.count(out.attempted, out.failed)
		reps = append(reps, repSample{cost: c, refS: c.wall * iv.speed, speed: iv.speed, observed: observed})
		longest[kind] = max(longest[kind], c.wall)
	}
	liveHeap, peakHeap := heap.stop()

	var wall, refS, obsWall, obsRefS, allocs, allocKB, gcCPU, gcCycles, speeds []float64
	for _, s := range reps {
		speeds = append(speeds, s.speed)
		if s.observed {
			obsWall = append(obsWall, s.wall)
			obsRefS = append(obsRefS, s.refS)
			continue
		}
		wall = append(wall, s.wall)
		refS = append(refS, s.refS)
		allocs = append(allocs, s.allocs)
		allocKB = append(allocKB, s.allocKB)
		gcCPU = append(gcCPU, s.gcCPU)
		gcCycles = append(gcCycles, s.gcCycles)
	}
	runRef := median(refS)
	r.set("ops_per_s", "op/s", ops/runRef)
	r.set("observed_ops_per_s", "op/s", ops/median(obsRefS))
	su.report(r)
	r.set("alloc_kb_per_op", "KB", median(allocKB)/ops)
	r.set("allocs_per_op", "count", median(allocs)/ops)
	r.set("live_heap_mb", "MB", liveHeap)
	r.set("go.peak_live_heap_mb", "MB", peakHeap)

	q1, q2, q3 := quartiles(wall)
	r.set("ops", "count", ops)
	r.set("run_s", "s", quantile(wall, 0.10))
	r.set("run_s_q1", "s", q1)
	r.set("run_s_p50", "s", q2)
	r.set("run_s_q3", "s", q3)
	r.set("run_ref_s", "s", runRef)
	r.set("observed_run_s", "s", quantile(obsWall, 0.10))
	r.set("observed_run_ref_s", "s", median(obsRefS))
	r.set("reps", "count", float64(len(wall)))
	r.set("observed_reps", "count", float64(len(obsWall)))
	r.set("host_speed", "ratio", median(speeds))
	r.set("sim_finished_jobs", "count", float64(first.finished))
	if first.finished > 0 {
		r.set("sim_seconds", "s", first.simSeconds)
		r.set("sim_mean_jct_s", "s", first.meanJCT)
	}
	r.set("sim_tasks_finished", "count", float64(first.tasksDone))
	r.set("sim_remote_gb", "GB", first.remoteGB)
	r.set("sim_node_local_pct", "%", first.nodeLocal)
	if w.open {
		r.set("sim_jct_p50_s", "s", first.jctP50)
		r.set("sim_jct_p95_s", "s", first.jctP95)
	}

	r.set("go.allocs", "count", median(allocs))
	r.set("go.alloc_mb", "MB", median(allocKB)/1e3)
	r.set("go.gc_cpu_s", "s", median(gcCPU))
	r.set("go.gc_cycles", "count", median(gcCycles))
	r.set("engine.admitted", "count", float64(first.admitted))
	r.set("engine.rejected", "count", float64(first.rejected))
	r.set("engine.preempted", "count", float64(first.preempted))
	r.set("sim.events", "count", float64(first.events))
	if o.trace {
		if err := w.traced(o, r, clock, first, runRef); err != nil {
			return err
		}
	}
	r.set("max_rss_mb", "MB", maxRSSMB())
	return nil
}

// traced runs one more repetition with the timing scheduler decorator and
// the counting observer attached, then replays its flow trace through a
// fresh flow network outside the timed window. runRef is the untraced
// repetitions' median time at the reference speed.
func (w simWorkload) traced(o options, r *report, clock *refClock, untraced simOutcome, runRef float64) error {
	tr := newTracer()
	p, err := w.prepare(o.seed, tr.wrap)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	logs := make([]*flowLog, len(p.sims))
	for i, s := range p.sims {
		logs[i] = tr.newFlowLog()
		if err := s.Attach(logs[i]); err != nil {
			return err
		}
	}
	runtime.GC()
	clock.mark()
	c0 := readCounters()
	out, err := p.run()
	c := since(c0)
	iv := clock.read()
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	iv.exclude(&c)
	r.count(out.attempted, out.failed)
	if err := sameSimulation(untraced, out); err != nil {
		r.fail("the traced run changed the simulation: %v", err)
	}

	var rp replayStats
	for _, l := range logs {
		if err := l.replay(p.topo, p.end, &rp); err != nil {
			r.fail("flow replay: %v", err)
		}
	}
	tr.report(r, c.wall)
	rp.report(r, c.wall)
	sinkS := tr.sinkTime.Seconds()
	rest := c.wall - tr.schedSeconds() - sinkS
	r.set("engine.rest_s", "s", rest)
	r.set("engine.rest_share", "%", 100*rest/c.wall)
	r.set("engine.est_self_s", "s", rest-rp.seconds)
	r.set("obs.trace_overhead_pct", "%", 100*(c.wall*iv.speed/runRef-1))
	r.set("trace.run_s", "s", c.wall)
	return nil
}
