package mapsched

import (
	"math"
	"testing"

	"mapsched/internal/core"
)

func smallConfig() ClusterConfig {
	cfg := DefaultClusterConfig()
	cfg.Topology.NodesPerRack = 12
	return cfg
}

// seededConfig is smallConfig run under the given seed.
func seededConfig(seed int64) ClusterConfig {
	cfg := smallConfig()
	cfg.Seed = seed
	return cfg
}

// runSim is the tests' shorthand for New followed by Simulation.Run.
func runSim(cfg ClusterConfig, defs []JobDef, kind SchedulerKind, opts ...Option) (*Result, error) {
	s, err := New(cfg, defs, kind, opts...)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

func TestRunQuickstart(t *testing.T) {
	res, err := runSim(seededConfig(1), Batch(Wordcount), SchedulerProbabilistic, WithScale(30))
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Fatalf("unfinished jobs: %s", res)
	}
	if len(res.Jobs) != 10 {
		t.Fatalf("%d jobs", len(res.Jobs))
	}
	if res.JobCompletionCDF().N() != 10 {
		t.Fatal("completion CDF incomplete")
	}
}

func TestRunAllSchedulers(t *testing.T) {
	for _, k := range []SchedulerKind{SchedulerProbabilistic, SchedulerCoupling, SchedulerFair} {
		res, err := runSim(smallConfig(), Batch(Grep), k, WithScale(30))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if res.Unfinished != 0 {
			t.Fatalf("%v: unfinished", k)
		}
	}
}

func TestRunDeterministicSeeds(t *testing.T) {
	run := func() float64 {
		res, err := runSim(seededConfig(42), Batch(Terasort), SchedulerProbabilistic, WithScale(30))
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	if run() != run() {
		t.Fatal("same seed produced different makespans")
	}
}

func TestRunOptions(t *testing.T) {
	cfg := smallConfig()
	cfg.CostMode = ModeNetworkCondition
	cfg.CrossTraffic = 5
	res, err := runSim(cfg, Batch(Wordcount), SchedulerProbabilistic,
		WithScale(40), WithPmin(0.2), WithReplication(3),
		WithEstimator(core.Oracle{}), WithDeterministic())
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Fatal("unfinished with options")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := runSim(smallConfig(), nil, SchedulerProbabilistic); err == nil {
		t.Fatal("empty workload accepted")
	}
	if _, err := runSim(smallConfig(), Batch(Grep), SchedulerKind(99), WithScale(40)); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	bad := DefaultClusterConfig()
	bad.MapSlotsPerNode = 0
	if _, err := runSim(bad, Batch(Grep), SchedulerFair, WithScale(40)); err == nil {
		t.Fatal("bad config accepted")
	}
}

// TestNewRejectsNaNHeartbeat: a NaN heartbeat interval must fail in New
// rather than build a simulation whose Run never returns.
func TestNewRejectsNaNHeartbeat(t *testing.T) {
	cfg := smallConfig()
	cfg.HeartbeatInterval = math.NaN()
	if _, err := New(cfg, Batch(Grep), SchedulerFair, WithScale(40)); err == nil {
		t.Fatal("NaN heartbeat interval accepted")
	}
}

func TestTableIIPassthrough(t *testing.T) {
	if len(TableII()) != 30 {
		t.Fatal("TableII passthrough broken")
	}
	if len(Batch(Wordcount)) != 10 {
		t.Fatal("Batch passthrough broken")
	}
	if TestbedSetup().Pmin != 0.4 {
		t.Fatal("TestbedSetup Pmin != 0.4")
	}
}

func TestRunWithStorageSubset(t *testing.T) {
	res, err := runSim(seededConfig(2), Batch(Terasort), SchedulerProbabilistic,
		WithScale(40), WithStorageSubset(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Fatal("unfinished with storage subset")
	}
	// With 12 nodes but storage on 3, a large share of maps cannot be
	// node-local (without the subset the rate is near 100%; with it,
	// seeds land around 55-65%, so 70 leaves slack without losing the
	// signal).
	if res.MapLocality.PercentNode() > 70 {
		t.Fatalf("suspiciously high locality %v%% with subset storage",
			res.MapLocality.PercentNode())
	}
}

func TestRunWithTraceExport(t *testing.T) {
	s, err := New(seededConfig(3), Batch(Grep), SchedulerFair, WithScale(40))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Trace()
	if tr == nil || len(tr.Tasks) == 0 {
		t.Fatal("empty trace")
	}
	wantTasks := 0
	for _, j := range res.Jobs {
		wantTasks += j.NumMaps + j.NumReduces
	}
	if len(tr.Tasks) != wantTasks {
		t.Fatalf("trace has %d tasks, want %d", len(tr.Tasks), wantTasks)
	}
	if _, end := tr.Span(); end <= 0 {
		t.Fatal("trace span empty")
	}
}
