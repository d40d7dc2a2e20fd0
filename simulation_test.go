package mapsched

import (
	"bytes"
	"strings"
	"testing"
)

// TestSimulationHandle exercises the New → Attach → Run → Result/Trace
// lifecycle and its error paths.
func TestSimulationHandle(t *testing.T) {
	sim, err := New(seededConfig(1), Batch(Grep), SchedulerProbabilistic, WithScale(30))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Result(); err == nil {
		t.Fatal("Result before Run accepted")
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Fatalf("unfinished jobs: %s", res)
	}
	got, err := sim.Result()
	if err != nil || got != res {
		t.Fatalf("Result() = %v, %v; want the Run result", got, err)
	}
	if tr := sim.Trace(); tr == nil || len(tr.Tasks) == 0 {
		t.Fatal("empty trace")
	}
	if _, err := sim.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
	if err := sim.Attach(ObserverFunc(func(Event) {})); err == nil {
		t.Fatal("Attach after Run accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(smallConfig(), nil, SchedulerProbabilistic); err == nil {
		t.Fatal("empty workload accepted")
	}
	if _, err := New(smallConfig(), Batch(Grep), SchedulerKind(99), WithScale(40)); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	negative := smallConfig()
	negative.CrossTraffic = -1
	if _, err := New(negative, Batch(Grep), SchedulerProbabilistic); err == nil {
		t.Fatal("negative cross traffic accepted")
	}
	if _, err := New(smallConfig(), Batch(Grep), SchedulerProbabilistic, WithStorageSubset(-1)); err == nil {
		t.Fatal("negative storage subset accepted")
	}
	sim, err := New(smallConfig(), Batch(Grep), SchedulerProbabilistic, WithScale(40))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Attach(nil); err == nil {
		t.Fatal("nil observer accepted")
	}
}

// TestOptionZeroValues verifies that explicit zero values take effect
// instead of being silently dropped: the cluster config's cross-traffic
// count, zero included, is the number of persistent flows, and
// WithStorageSubset(0) means the whole cluster.
func TestOptionZeroValues(t *testing.T) {
	count := func(flows int) float64 {
		sum := NewSummarySink()
		cfg := seededConfig(1)
		cfg.CrossTraffic = flows
		sim, err := New(cfg, Batch(Grep), SchedulerProbabilistic, WithScale(40), WithObserver(sum))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		// Persistent cross-traffic flows appear in flows_started but never
		// in flows_finished.
		return sum.Registry().Counter("flows_started").Value() -
			sum.Registry().Counter("flows_finished").Value()
	}
	for _, flows := range []int{50, 0, 7} {
		if open := count(flows); open != float64(flows) {
			t.Fatalf("cfg.CrossTraffic = %d: %v persistent flows", flows, open)
		}
	}

	// WithStorageSubset(0) must mean "whole cluster", i.e. behave exactly
	// like not passing the option, not like a 0-node subset (which would
	// error out in placement).
	res0, err := runSim(seededConfig(2), Batch(Terasort), SchedulerProbabilistic,
		WithScale(40), WithStorageSubset(0))
	if err != nil {
		t.Fatalf("WithStorageSubset(0): %v", err)
	}
	resDefault, err := runSim(seededConfig(2), Batch(Terasort), SchedulerProbabilistic, WithScale(40))
	if err != nil {
		t.Fatal(err)
	}
	if res0.Makespan != resDefault.Makespan {
		t.Fatalf("WithStorageSubset(0) changed the run: %v != %v",
			res0.Makespan, resDefault.Makespan)
	}
}

// TestObserverDoesNotChangeResult is the layer's core guarantee: a run
// with observers attached is bit-identical to the same run without them.
func TestObserverDoesNotChangeResult(t *testing.T) {
	for _, kind := range []SchedulerKind{SchedulerProbabilistic, SchedulerCoupling, SchedulerFair} {
		plain, err := runSim(seededConfig(7), Batch(Wordcount), kind, WithScale(30))
		if err != nil {
			t.Fatal(err)
		}
		events := 0
		observed, err := runSim(seededConfig(7), Batch(Wordcount), kind, WithScale(30),
			WithObserver(ObserverFunc(func(Event) { events++ })))
		if err != nil {
			t.Fatal(err)
		}
		if events == 0 {
			t.Fatalf("%v: observer saw no events", kind)
		}
		if plain.Makespan != observed.Makespan {
			t.Fatalf("%v: observer changed makespan: %v != %v", kind, plain.Makespan, observed.Makespan)
		}
		pc, oc := plain.JobCompletionCDF(), observed.JobCompletionCDF()
		if pc.Mean() != oc.Mean() || pc.Max() != oc.Max() {
			t.Fatalf("%v: observer changed job completions", kind)
		}
	}
}

// TestEventLogDeterministic asserts the golden-JSONL property: a fixed
// seed reproduces a byte-identical event log, and the log contains the
// full Formula 1-5 breakdown for assignments.
func TestEventLogDeterministic(t *testing.T) {
	record := func() string {
		var buf bytes.Buffer
		log := NewJSONLSink(&buf)
		sim, err := New(seededConfig(11), Batch(Terasort), SchedulerProbabilistic,
			WithScale(30), WithObserver(log))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if err := log.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := record(), record()
	if a != b {
		t.Fatal("same seed produced different event logs")
	}
	if a == "" {
		t.Fatal("empty event log")
	}

	events, err := ReadEventLog(strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	assigns, withBreakdown := 0, 0
	last := -1.0
	for _, e := range events {
		if e.T < last {
			t.Fatalf("events out of time order: %v after %v", e.T, last)
		}
		last = e.T
		if e.Type != EventType("task_assign") {
			continue
		}
		assigns++
		d := e.Decision
		if d == nil {
			continue
		}
		withBreakdown++
		if d.P < 0 || d.P > 1 || d.PMin != 0.4 || d.Draw == "" {
			t.Fatalf("malformed decision %+v", d)
		}
		if d.Draw != "local" && (d.C <= 0 || d.CAvg <= 0) {
			t.Fatalf("non-local assignment without cost breakdown: %+v", d)
		}
	}
	if assigns == 0 || withBreakdown != assigns {
		t.Fatalf("%d assignments, %d with breakdown; want all", assigns, withBreakdown)
	}

	// The raw log must contain the breakdown fields by name (the schema
	// documented in DESIGN.md §10).
	for _, field := range []string{`"c_avg"`, `"p_min"`, `"draw"`, `"task_offer"`, `"flow_start"`, `"job_finish"`} {
		if !strings.Contains(a, field) {
			t.Fatalf("event log missing %s", field)
		}
	}
}

// TestSummarySinkRates sanity-checks the streaming metrics on a real run.
func TestSummarySinkRates(t *testing.T) {
	sum := NewSummarySink()
	if _, err := runSim(seededConfig(5), Batch(Wordcount), SchedulerProbabilistic,
		WithScale(30), WithObserver(sum)); err != nil {
		t.Fatal(err)
	}
	reg := sum.Registry()
	if reg.Counter("jobs_submitted").Value() != 10 || reg.Counter("jobs_finished").Value() != 10 {
		t.Fatalf("job counters: %v submitted, %v finished",
			reg.Counter("jobs_submitted").Value(), reg.Counter("jobs_finished").Value())
	}
	if hit := sum.LocalityHitRate("map"); hit <= 0 || hit > 1 {
		t.Fatalf("map locality hit rate %v", hit)
	}
	if rate := sum.SkipRate("map"); rate < 0 || rate >= 1 {
		t.Fatalf("map skip rate %v", rate)
	}
	if reg.Histogram("job_completion_s").N() != 10 {
		t.Fatal("job completion histogram incomplete")
	}
	if reg.Counter("flows_started").Value() == 0 {
		t.Fatal("no flow events observed")
	}
	if !strings.Contains(sum.String(), "locality_hit_map") {
		t.Fatal("summary rendering missing rates")
	}
}
