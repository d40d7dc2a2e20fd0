package mapsched

// Benchmark harness regenerating every table and figure of the paper's
// evaluation (Section III), plus the ablations in DESIGN.md, the
// simulation kernel's profiling target and a few microbenchmarks.
//
//	go test -run '^$' -bench . -benchmem
//
// The figure benches share one cached three-scheduler comparison (built
// once outside the timed region) and report the headline numbers via
// b.ReportMetric; the rendered tables are printed once. Full tables at
// canonical scale are produced by cmd/experiments. End-to-end speed is
// measured by cmd/mrbench (make bench); TestSimulationAllocBudget holds
// the kernel's allocation count in the ordinary test run.

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"testing"

	"mapsched/internal/analysis"
	"mapsched/internal/core"
	"mapsched/internal/engine"
	"mapsched/internal/experiments"
	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/metrics"
	"mapsched/internal/obs"
	"mapsched/internal/sched"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
	"mapsched/internal/workload"
)

// benchSetup is the experiment environment at benchmark scale: the full
// 60-node testbed with jobs scaled down so a batch run takes seconds.
func benchSetup() experiments.Setup {
	s := experiments.DefaultSetup()
	s.Workload.Scale = 12
	return s
}

var (
	benchCmp     *experiments.Comparison
	benchCmpErr  error
	benchCmpOnce sync.Once
	printOnce    sync.Once
)

func benchComparison(b *testing.B) *experiments.Comparison {
	b.Helper()
	benchCmpOnce.Do(func() {
		benchCmp, benchCmpErr = benchSetup().RunComparison()
	})
	if benchCmpErr != nil {
		b.Fatal(benchCmpErr)
	}
	return benchCmp
}

func printReports(c *experiments.Comparison) {
	printOnce.Do(func() {
		fmt.Fprintln(os.Stderr, experiments.TableIIReport())
		fmt.Fprintln(os.Stderr, experiments.Fig3().Report())
		fmt.Fprintln(os.Stderr, experiments.Fig4Report(c))
		fmt.Fprintln(os.Stderr, experiments.Fig5(c).Report())
		fmt.Fprintln(os.Stderr, experiments.Fig6Report(c))
		fmt.Fprintln(os.Stderr, experiments.TableIII(c).Report())
		fmt.Fprintln(os.Stderr, experiments.Fig7(c).Report())
		fmt.Fprintln(os.Stderr, experiments.Utilization(c).Report())
	})
}

// BenchmarkTableII_Workload regenerates Table II (the 30-job workload with
// its published task counts).
func BenchmarkTableII_Workload(b *testing.B) {
	var r experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.TableIIReport()
	}
	if len(r.Body) == 0 {
		b.Fatal("empty Table II")
	}
	b.ReportMetric(30, "jobs")
}

// BenchmarkFig3_DataSizeCDF regenerates the input/shuffle size CDFs.
func BenchmarkFig3_DataSizeCDF(b *testing.B) {
	var f experiments.Fig3Data
	for i := 0; i < b.N; i++ {
		f = experiments.Fig3()
	}
	b.ReportMetric(100*f.Shuffle.At(50e9), "pct_jobs_le_50GB_shuffle")
	b.ReportMetric(100*(1-f.Shuffle.At(100e9)), "pct_jobs_gt_100GB_shuffle")
}

// BenchmarkFig4_JobCompletionCDF regenerates the job-completion-time CDFs
// of the three schedulers over the three batches.
func BenchmarkFig4_JobCompletionCDF(b *testing.B) {
	c := benchComparison(b)
	printReports(c)
	b.ResetTimer()
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.Fig4Report(c)
	}
	_ = rep
	for _, k := range experiments.SchedulerKinds() {
		b.ReportMetric(c.Results[k].JobCompletionCDF().Mean(), "meanJCT_"+k.String())
	}
}

// BenchmarkFig5_Reduction regenerates the per-job completion-time
// reduction CDFs (probabilistic vs coupling / fair).
func BenchmarkFig5_Reduction(b *testing.B) {
	c := benchComparison(b)
	b.ResetTimer()
	var f experiments.Fig5Data
	for i := 0; i < b.N; i++ {
		f = experiments.Fig5(c)
	}
	b.ReportMetric(100*f.AvgVsCoupling(), "avg_reduction_vs_coupling_pct")
	b.ReportMetric(100*f.AvgVsFair(), "avg_reduction_vs_fair_pct")
}

// BenchmarkFig6_TaskTimeCDF regenerates the map/reduce task running-time
// CDFs.
func BenchmarkFig6_TaskTimeCDF(b *testing.B) {
	c := benchComparison(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig6Report(c)
	}
	for _, k := range experiments.SchedulerKinds() {
		b.ReportMetric(metrics.NewCDF(c.Results[k].MapTimes).Quantile(0.95), "p95_mapT_"+k.String())
	}
}

// BenchmarkTableIII_Locality regenerates the locality mix table.
func BenchmarkTableIII_Locality(b *testing.B) {
	c := benchComparison(b)
	b.ResetTimer()
	var d experiments.TableIIIData
	for i := 0; i < b.N; i++ {
		d = experiments.TableIII(c)
	}
	for _, k := range experiments.SchedulerKinds() {
		l := d.Locality[k]
		b.ReportMetric(l.PercentNode(), "pct_local_node_"+k.String())
	}
}

// BenchmarkFig7_LocalityVsSize regenerates map locality vs input size.
func BenchmarkFig7_LocalityVsSize(b *testing.B) {
	c := benchComparison(b)
	b.ResetTimer()
	var d experiments.Fig7Data
	for i := 0; i < b.N; i++ {
		d = experiments.Fig7(c)
	}
	if len(d.Sizes) == 0 {
		b.Fatal("no sizes")
	}
	k := experiments.Probabilistic
	b.ReportMetric(d.Percent[k][d.Sizes[0]], "pct_local_smallest_input")
	b.ReportMetric(d.Percent[k][d.Sizes[len(d.Sizes)-1]], "pct_local_largest_input")
}

// BenchmarkUtilization regenerates the slot-utilization comparison.
func BenchmarkUtilization(b *testing.B) {
	c := benchComparison(b)
	b.ResetTimer()
	var u experiments.UtilizationData
	for i := 0; i < b.N; i++ {
		u = experiments.Utilization(c)
	}
	for _, k := range experiments.SchedulerKinds() {
		b.ReportMetric(u.Reduce[k], "reduce_util_"+k.String())
	}
}

// BenchmarkPminSweep regenerates the P_min tuning experiment (10 Wordcount
// jobs per threshold).
func BenchmarkPminSweep(b *testing.B) {
	s := benchSetup()
	values := []float64{0.2, 0.4, 0.6}
	var pts []experiments.PminPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.PminSweep(s, values)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(float64(p.Unfinished), fmt.Sprintf("unfinished_pmin_%.1f", p.Pmin))
	}
}

// Full-simulation benches: the Wordcount batch under the probabilistic
// scheduler on the 60-node testbed.

// runProbabilisticBatch runs the batch once and fails on an unfinished
// job.
func runProbabilisticBatch(tb testing.TB, s experiments.Setup) *engine.Result {
	tb.Helper()
	res, err := s.RunBatch(workload.Wordcount, s.BuilderFor(experiments.Probabilistic))
	if err != nil {
		tb.Fatal(err)
	}
	if res.Unfinished != 0 {
		tb.Fatal("unfinished jobs under probabilistic")
	}
	return res
}

// BenchmarkSimulation_Probabilistic is the simulation kernel's profiling
// target (DESIGN.md §9 gives the pprof recipe).
func BenchmarkSimulation_Probabilistic(b *testing.B) {
	s := benchSetup()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := runProbabilisticBatch(b, s)
		if i == 0 {
			b.ReportMetric(res.JobCompletionCDF().Mean(), "meanJCT_s")
			b.ReportMetric(float64(res.Events), "sim_events")
		}
	}
}

// BenchmarkSimulation_Batch60 is one repetition of cmd/mrbench's batch60
// workload: the Wordcount, Terasort and Grep batches under the
// probabilistic scheduler on the 60-node testbed, scale 12, seed 1. It is
// the profiling target for the max-min solver in the shuffle-heavy regime
// (DESIGN.md §9 gives the pprof recipe); Terasort's fills differ from
// Wordcount's.
func BenchmarkSimulation_Batch60(b *testing.B) {
	s := benchSetup()
	s.Engine.Seed = 1
	builder := s.BuilderFor(experiments.Probabilistic)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var events uint64
		for _, kind := range workload.Kinds() {
			res, err := s.RunBatch(kind, builder)
			if err != nil {
				b.Fatal(err)
			}
			if res.Unfinished != 0 {
				b.Fatalf("%v: unfinished jobs under probabilistic", kind)
			}
			events += res.Events
		}
		if i == 0 {
			b.ReportMetric(float64(events), "sim_events")
		}
	}
}

// BenchmarkSimulation_Scale5k is one repetition of cmd/mrbench's batch5k
// workload, engine.New plus Run: the first 30 simulated seconds of the
// Wordcount batch on 250 racks of 20 nodes, with hop costs, no cross
// traffic and seed 1. It is the profiling target for the per-offer host
// work at 5,000 nodes (DESIGN.md §9 gives the pprof recipe).
func BenchmarkSimulation_Scale5k(b *testing.B) {
	s := benchSetup()
	s.Engine.Seed = 1
	s.Engine.CostMode = core.ModeHops
	s.Engine.CrossTraffic = 0
	s.Engine.Topology.Racks = 250
	s.Engine.Topology.NodesPerRack = 20
	s.Engine.MaxSimTime = 30
	specs, err := workload.Specs(workload.Batch(workload.Wordcount), s.Workload)
	if err != nil {
		b.Fatal(err)
	}
	builder := s.BuilderFor(experiments.Probabilistic)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim, err := engine.New(s.Engine, specs, builder)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Events), "sim_events")
		}
	}
}

// kernelAllocBudget bounds the allocations of one
// BenchmarkSimulation_Probabilistic batch: 17,152 recorded once shuffle
// buckets and flights swapped their maps arrays, plus 20 %.
const kernelAllocBudget = 17_152 * 120 / 100 // 20,582

// TestSimulationAllocBudget holds the kernel to kernelAllocBudget.
// Allocation counts do not depend on machine load, so a trip means
// somebody reintroduced per-event or per-offer allocations on the hot
// path, not that the host was busy.
func TestSimulationAllocBudget(t *testing.T) {
	s := benchSetup()
	allocs := testing.AllocsPerRun(1, func() { runProbabilisticBatch(t, s) })
	if allocs > kernelAllocBudget {
		t.Fatalf("%.0f allocs per batch, budget %d", allocs, kernelAllocBudget)
	}
}

// runObservedBatch runs the Wordcount batch of runProbabilisticBatch
// with o attached, unless o is nil, and flushes o if it is a JSONL sink.
func runObservedBatch(tb testing.TB, s experiments.Setup, specs []job.Spec, o obs.Observer) {
	tb.Helper()
	sim, err := engine.New(s.Engine, specs, s.BuilderFor(experiments.Probabilistic))
	if err != nil {
		tb.Fatal(err)
	}
	if o != nil {
		if err := sim.Attach(o); err != nil {
			tb.Fatal(err)
		}
	}
	res, err := sim.Run()
	if err != nil {
		tb.Fatal(err)
	}
	if res.Unfinished != 0 {
		tb.Fatal("unfinished jobs under observed probabilistic")
	}
	if sink, ok := o.(*obs.JSONL); ok {
		if err := sink.Flush(); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkSimulation_ProbabilisticObserved is the same batch with an
// observer attached consuming every event. The gap to
// BenchmarkSimulation_Probabilistic is the cost of the observability
// layer when it is actually on, and the yardstick for the observer
// allocation target in ROADMAP.md.
func BenchmarkSimulation_ProbabilisticObserved(b *testing.B) {
	s := benchSetup()
	specs, err := workload.Specs(workload.Batch(workload.Wordcount), s.Workload)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var seen uint64
		runObservedBatch(b, s, specs, obs.Func(func(obs.Event) { seen++ }))
		if seen == 0 {
			b.Fatal("observer saw no events")
		}
		if i == 0 {
			b.ReportMetric(float64(seen), "obs_events")
		}
	}
}

// observedBatchAllocs returns the allocations of one Wordcount batch
// under a fresh observer from newObserver (nil for none).
func observedBatchAllocs(t *testing.T, newObserver func() obs.Observer) float64 {
	t.Helper()
	s := benchSetup()
	specs, err := workload.Specs(workload.Batch(workload.Wordcount), s.Workload)
	if err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(1, func() { runObservedBatch(t, s, specs, newObserver()) })
}

func noopObserver() obs.Observer { return obs.Func(func(obs.Event) {}) }

// observedAllocRatio bounds the allocations of one Wordcount batch under
// a no-op observer, as a multiple of the same batch unobserved: 7.3×
// while the flow network emitted an event per share change and allocated
// every flow-event payload on its own, 1.2× once it emitted none and
// carved payloads from blocks.
const observedAllocRatio = 1.5

// TestObservedAllocBudget holds observation to observedAllocRatio. It
// counts allocations, which machine load does not move: a trip means an
// emission site allocates per event again, or a new event is emitted
// per solver step.
func TestObservedAllocBudget(t *testing.T) {
	unobserved := observedBatchAllocs(t, func() obs.Observer { return nil })
	observed := observedBatchAllocs(t, noopObserver)
	t.Logf("%.0f allocs per unobserved batch, %.0f under a no-op observer (%.2f×)",
		unobserved, observed, observed/unobserved)
	if observed > observedAllocRatio*unobserved {
		t.Fatalf("a no-op observer raises allocations per batch from %.0f to %.0f, budget %.1f×",
			unobserved, observed, observedAllocRatio)
	}
}

// jsonlAllocGap bounds what a JSONL sink may allocate beyond a no-op
// observer over one Wordcount batch: 249,881 objects while the sink
// called json.Marshal per event, 2 with the hand-written encoder.
const jsonlAllocGap = 64

// TestJSONLSinkAllocGap holds the JSONL sink to jsonlAllocGap. Like
// TestSimulationAllocBudget it counts allocations, which machine load
// does not move: a trip means the encoder allocates per event again.
func TestJSONLSinkAllocGap(t *testing.T) {
	noop := observedBatchAllocs(t, noopObserver)
	sink := observedBatchAllocs(t, func() obs.Observer { return obs.NewJSONL(io.Discard) })
	t.Logf("%.0f allocs per observed batch, %.0f with a JSONL sink", noop, sink)
	if gap := sink - noop; gap > jsonlAllocGap {
		t.Fatalf("JSONL sink allocates %.0f objects per batch beyond a no-op observer, budget %d", gap, jsonlAllocGap)
	}
}

// Macro bench of the parallel experiment harness: the full
// three-scheduler x three-batch comparison with the worker pool at a
// given size. The comparison fans out 9 leaf simulations (3 schedulers
// x 3 workload batches), so the pool saturates at min(9, GOMAXPROCS).
// Each run reports gomaxprocs so the output is self-describing.

func benchComparisonRun(b *testing.B, workers int) {
	s := benchSetup()
	experiments.SetMaxWorkers(workers)
	defer experiments.SetMaxWorkers(runtime.GOMAXPROCS(0))
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	for i := 0; i < b.N; i++ {
		c, err := s.RunComparison()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(c.Results[experiments.Probabilistic].JobCompletionCDF().Mean(), "meanJCT_prob")
		}
	}
}

// BenchmarkSimulation_ComparisonWorkers sweeps the worker-pool size over
// the useful range (the comparison has 9 leaf simulations). On a
// multi-core machine the curve rises until min(9, GOMAXPROCS) and then
// flattens; on a single-core machine it is flat by construction, which is
// the honest shape rather than a parallelism win.
func BenchmarkSimulation_ComparisonWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4, 9} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchComparisonRun(b, w) })
	}
}

// Ablation benches (design choices called out in DESIGN.md).

func benchAblation(b *testing.B, run func(experiments.Setup) ([]experiments.AblationPoint, error)) {
	s := benchSetup()
	var pts []experiments.AblationPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = run(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.MeanJCT, "meanJCT_"+p.Variant)
	}
}

func BenchmarkAblation_Estimator(b *testing.B) {
	benchAblation(b, experiments.AblationEstimator)
}

func BenchmarkAblation_NetworkCondition(b *testing.B) {
	benchAblation(b, experiments.AblationNetworkCondition)
}

func BenchmarkAblation_Deterministic(b *testing.B) {
	benchAblation(b, experiments.AblationDeterministic)
}

func BenchmarkAblation_ReduceSpread(b *testing.B) {
	benchAblation(b, experiments.AblationReduceSpread)
}

func BenchmarkMultiRack(b *testing.B) {
	benchAblation(b, experiments.MultiRack)
}

// BenchmarkSim_RescheduleStep times one recurring-timer tick: re-arm an
// embedded event, then dispatch it.
func BenchmarkSim_RescheduleStep(b *testing.B) {
	eng := sim.NewEngine()
	var ev sim.Event
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Reschedule(&ev, eng.Now()+1, fn)
		eng.Step()
	}
}

// BenchmarkSim_RecurringTimers times the event queue under the
// heartbeat pattern at 5,000 nodes: 5,000 embedded events, phase-offset
// across the first second, each re-arming one second on from its own
// callback through Append. One op is one dispatch.
func BenchmarkSim_RecurringTimers(b *testing.B) {
	const timers = 5000
	eng := sim.NewEngine()
	evs := make([]sim.Event, timers)
	for i := range evs {
		ev := &evs[i]
		var fn func()
		fn = func() { eng.Append(ev, eng.Now()+1, fn) }
		eng.Append(ev, sim.Time(i)/timers, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

func BenchmarkMetrics_CDFQuantile(b *testing.B) {
	vals := make([]float64, 10000)
	rng := sim.NewRNG(9)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	cdf := metrics.NewCDF(vals)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cdf.Quantile(float64(i%100) / 100)
	}
}

func BenchmarkHDFS_Placement(b *testing.B) {
	net, err := topology.NewCluster(sim.NewEngine(), topology.DefaultSpec())
	if err != nil {
		b.Fatal(err)
	}
	store := hdfs.NewStore(net, sim.NewRNG(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.AddBlock(128e6, 2, hdfs.RackAware{}); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = sched.FairJobs  // document the sched dependency of this harness
var _ = engine.Config{} // and the engine one

// Extension benches: the paper's future-work explorations and the
// related-work baselines.

func BenchmarkExtension_ProbabilityModels(b *testing.B) {
	s := benchSetup()
	var pts []experiments.AblationPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.ModelComparison(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.MeanJCT, "meanJCT_"+p.Variant)
	}
}

func BenchmarkExtension_AllSchedulers(b *testing.B) {
	s := benchSetup()
	var pts []experiments.AblationPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.ExtendedComparison(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.MeanJCT, "meanJCT_"+p.Variant)
	}
}

func BenchmarkExtension_FaultTolerance(b *testing.B) {
	s := benchSetup()
	var pts []experiments.FaultPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.FaultTolerance(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.FaultyJCT, "faultyJCT_"+p.Scheduler)
	}
}

func BenchmarkAnalysis_TradeoffCurve(b *testing.B) {
	costs := make([]float64, 60)
	for i := 1; i < 60; i++ {
		costs[i] = 2
	}
	pmins := []float64{0, 0.2, 0.4, 0.6, 0.8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.TradeoffCurve(costs, core.Exponential{}, pmins); err != nil {
			b.Fatal(err)
		}
	}
}
