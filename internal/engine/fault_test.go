package engine

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"mapsched/internal/cluster"
	"mapsched/internal/faults"
	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/placement"
	"mapsched/internal/sched"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
	"mapsched/internal/workload"
)

// faultSpecs builds a workload with enough tasks for failures and
// speculation to have something to hit, at replication 3 so two node
// failures can never orphan a block.
func faultSpecs(t *testing.T, jitter float64) []job.Spec {
	t.Helper()
	o := workload.Options{Scale: 20, Replication: 3, SubmitStagger: 1}
	defs := []workload.JobDef{
		{JobID: "01", Kind: workload.Wordcount, InputGB: 20, Maps: 160, Reduces: 169},
		{JobID: "11", Kind: workload.Terasort, InputGB: 20, Maps: 199, Reduces: 186},
	}
	specs, err := workload.Specs(defs, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		specs[i].Profile.ComputeJitter = jitter
	}
	return specs
}

func TestNodeFailureRecovery(t *testing.T) {
	cfg := tinyConfig() // 2 racks x 4 nodes
	cfg.Faults.Crashes = []faults.NodeCrash{{Node: 1, At: 8}, {Node: 5, At: 20}}
	s, err := New(cfg, faultSpecs(t, 0.2), sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Fatalf("jobs unfinished despite surviving replicas: %s", res)
	}
	// Shuffle conservation holds across re-executions.
	for _, j := range s.Jobs() {
		for _, r := range j.Reduces {
			if math.Abs(r.ShuffledBytes-r.ExpectedInput()) > 1 {
				t.Fatalf("reduce %d of %s shuffled %v, want %v",
					r.Index, j.Spec.Name, r.ShuffledBytes, r.ExpectedInput())
			}
			if r.State != job.TaskDone {
				t.Fatalf("reduce %d of %s not done", r.Index, j.Spec.Name)
			}
		}
	}
	// Dead nodes hold no slots.
	for _, n := range []topology.NodeID{1, 5} {
		node := s.state.Node(n)
		if !node.Offline() {
			t.Fatalf("node %d not offline", n)
		}
		if node.UsedSlots(job.MapKind) != 0 || node.UsedSlots(job.ReduceKind) != 0 {
			t.Fatalf("node %d leaked slots after failure", n)
		}
	}
}

func TestNodeFailureBeforeAnyWork(t *testing.T) {
	cfg := tinyConfig()
	cfg.Faults.Crashes = []faults.NodeCrash{{Node: 0, At: 0}}
	s, err := New(cfg, faultSpecs(t, 0.1), sched.NewFairDelay(sched.DefaultFairDelayConfig()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Fatalf("failure at t=0 wedged the run: %s", res)
	}
}

func TestFailureValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.Faults.Crashes = []faults.NodeCrash{{Node: 99, At: 1}}
	if err := cfg.Validate(); err == nil {
		t.Error("out-of-range failure node accepted")
	}
	cfg = tinyConfig()
	cfg.Faults.Crashes = []faults.NodeCrash{{Node: 0, At: -1}}
	if err := cfg.Validate(); err == nil {
		t.Error("negative failure time accepted")
	}
	cfg = tinyConfig()
	cfg.Faults.Crashes = []faults.NodeCrash{{Node: 0, At: 1}, {Node: 0, At: 2}}
	if err := cfg.Validate(); err == nil {
		t.Error("duplicate failure of one node accepted")
	}
}

func TestFailureRelaunchAccounting(t *testing.T) {
	// Fail a node mid-run (t=8 sits inside the map/shuffle phase for every
	// seed; later instants can fall after the makespan): at least some
	// completed maps or running reduces should be relaunched across seeds.
	relaunches := 0
	for seed := int64(1); seed <= 3; seed++ {
		cfg := tinyConfig()
		cfg.Seed = seed
		cfg.Faults.Crashes = []faults.NodeCrash{{Node: 2, At: 8}}
		s, err := New(cfg, faultSpecs(t, 0.2), sched.NewFairDelay(sched.DefaultFairDelayConfig()))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Unfinished != 0 {
			t.Fatalf("seed %d: unfinished", seed)
		}
		relaunches += res.RelaunchedMaps + res.RelaunchedReduces
	}
	if relaunches == 0 {
		t.Fatal("mid-run failures never forced a relaunch across 3 seeds")
	}
}

func TestSpeculationLaunchesAndWins(t *testing.T) {
	cfg := tinyConfig()
	cfg.Speculation = true
	cfg.SpecSlowdown = 1.25
	cfg.SpecMinCompleted = 2
	cfg.CrossTraffic = 12 // congested paths create genuine stragglers
	s, err := New(cfg, faultSpecs(t, 0.45), sched.NewFairDelay(sched.DefaultFairDelayConfig()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Fatalf("unfinished with speculation: %s", res)
	}
	if res.Speculated == 0 {
		t.Fatal("speculation never fired despite heavy jitter and congestion")
	}
	if res.SpecWins > res.Speculated {
		t.Fatalf("wins %d exceed launches %d", res.SpecWins, res.Speculated)
	}
	// Conservation still holds: backups must not double-deliver output.
	for _, j := range s.Jobs() {
		for _, r := range j.Reduces {
			if math.Abs(r.ShuffledBytes-r.ExpectedInput()) > 1 {
				t.Fatalf("speculation broke shuffle conservation for %s/%d",
					j.Spec.Name, r.Index)
			}
		}
	}
	// Slot accounting balanced.
	um, ur := s.state.UsedSlots()
	if um != 0 || ur != 0 {
		t.Fatalf("speculation leaked slots: %d/%d", um, ur)
	}
}

func TestSpeculationDeterminism(t *testing.T) {
	run := func() (float64, int) {
		cfg := tinyConfig()
		cfg.Speculation = true
		cfg.SpecSlowdown = 1.3
		cfg.SpecMinCompleted = 2
		cfg.Seed = 11
		s, err := New(cfg, faultSpecs(t, 0.4), sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan, res.Speculated
	}
	m1, s1 := run()
	m2, s2 := run()
	if m1 != m2 || s1 != s2 {
		t.Fatalf("speculation broke determinism: (%v,%d) vs (%v,%d)", m1, s1, m2, s2)
	}
}

func TestSpeculationValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.Speculation = true
	cfg.SpecSlowdown = 1.0
	if err := cfg.Validate(); err == nil {
		t.Error("SpecSlowdown <= 1 accepted")
	}
	cfg = tinyConfig()
	cfg.Speculation = true
	cfg.SpecSlowdown = 2
	cfg.SpecMinCompleted = 0
	if err := cfg.Validate(); err == nil {
		t.Error("SpecMinCompleted < 1 accepted")
	}
}

func TestSpeculationAndFailureTogether(t *testing.T) {
	cfg := tinyConfig()
	cfg.Speculation = true
	cfg.SpecSlowdown = 1.3
	cfg.SpecMinCompleted = 2
	cfg.Faults.Crashes = []faults.NodeCrash{{Node: 3, At: 12}}
	s, err := New(cfg, faultSpecs(t, 0.4), sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Fatalf("combined speculation+failure run unfinished: %s", res)
	}
	for _, j := range s.Jobs() {
		for _, r := range j.Reduces {
			if math.Abs(r.ShuffledBytes-r.ExpectedInput()) > 1 {
				t.Fatalf("conservation violated for %s/%d", j.Spec.Name, r.Index)
			}
		}
	}
}

func TestHeterogeneousNodesSlowTheRun(t *testing.T) {
	run := func(frac float64) float64 {
		cfg := tinyConfig()
		cfg.SlowNodeFraction = frac
		cfg.SlowFactor = 4
		s, err := New(cfg, faultSpecs(t, 0.1), sched.NewFairDelay(sched.DefaultFairDelayConfig()))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Unfinished != 0 {
			t.Fatal("unfinished")
		}
		return res.Makespan
	}
	uniform, het := run(0), run(0.4)
	if het <= uniform {
		t.Fatalf("slow nodes did not stretch the makespan: %v vs %v", het, uniform)
	}
}

func TestSpeculationHelpsOnHeterogeneousCluster(t *testing.T) {
	run := func(spec bool) float64 {
		cfg := tinyConfig()
		cfg.SlowNodeFraction = 0.25
		cfg.SlowFactor = 5
		cfg.Speculation = spec
		cfg.SpecSlowdown = 1.4
		cfg.SpecMinCompleted = 2
		s, err := New(cfg, faultSpecs(t, 0.15), sched.NewFairDelay(sched.DefaultFairDelayConfig()))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Unfinished != 0 {
			t.Fatal("unfinished")
		}
		if spec && res.Speculated == 0 {
			t.Fatal("speculation never fired on a heterogeneous cluster")
		}
		return res.Makespan
	}
	without, with := run(false), run(true)
	if with > without*1.05 {
		t.Fatalf("speculation made things worse: %v vs %v", with, without)
	}
}

func TestHeterogeneityValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.SlowNodeFraction = -0.1
	if err := cfg.Validate(); err == nil {
		t.Error("negative fraction accepted")
	}
	cfg = tinyConfig()
	cfg.SlowNodeFraction = 0.5
	cfg.SlowFactor = 0.5
	if err := cfg.Validate(); err == nil {
		t.Error("speedup factor accepted as slowdown")
	}
}

// TestJournalRecoversEngineState runs the fault-churn plan (two crashes,
// a slowdown, a degraded link, transient attempt failures, plus a
// blacklist threshold of one failure so blacklist flags move too) with a
// delta journal attached. It cuts the run at several instants and
// recovers a fresh placement service from the journal alone. Every slot,
// offline, blacklist and link-factor change the engine made went through
// the service, so the recovered state matches the engine's on every
// node, at the same epoch. Replica sets are left out: the input files
// are created at job submission, which is not a delta, so the fresh
// store the journal replays over holds no blocks.
func TestJournalRecoversEngineState(t *testing.T) {
	plan, err := faults.ParseSpec("crash:4@20;crash:8@60;slow:2@10+120*3;link:6@15+90*0.2;taskfail:0.05;blacklist:1")
	if err != nil {
		t.Fatal(err)
	}
	specs, err := workload.Specs(workload.Batch(workload.Wordcount), workload.Options{Scale: 30, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	var offline, blacklisted, links int
	for _, cut := range []float64{50, 100, 150} {
		cfg := DefaultConfig()
		cfg.Topology.NodesPerRack = 12
		cfg.Seed = 3
		cfg.Faults = plan
		cfg.MaxSimTime = cut
		s, err := New(cfg, specs, sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
		if err != nil {
			t.Fatal(err)
		}
		var journal bytes.Buffer
		if err := s.place.StartJournal(&journal); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}

		net, err := topology.NewCluster(sim.NewEngine(), cfg.Topology)
		if err != nil {
			t.Fatal(err)
		}
		slots, err := cluster.New(net.Size(), cfg.MapSlotsPerNode, cfg.ReduceSlotsPerNode)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := placement.Recover(placement.Deps{
			Net: net, Store: hdfs.NewStore(net, sim.NewRNG(1)), Rate: net, Slots: slots, Mode: cfg.CostMode,
		}, nil, &journal)
		if err != nil {
			t.Fatalf("cut %v: %v", cut, err)
		}
		if rec.Tail != nil {
			t.Fatalf("cut %v: journal tail: %v", cut, rec.Tail)
		}
		want, got := checkpointOf(t, s.place), checkpointOf(t, rec.Service)
		want.Replicas, got.Replicas = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %v: recovered %+v, engine %+v", cut, got, want)
		}
		offline += len(got.Offline)
		blacklisted += len(got.Blacklist)
		links += len(got.Links)
	}
	if offline == 0 || blacklisted == 0 || links == 0 {
		t.Fatalf("the cuts saw %d offline, %d blacklisted and %d degraded nodes; the plan no longer exercises every node delta",
			offline, blacklisted, links)
	}
}

// checkpointOf captures svc's scheduler-visible state as a decoded
// checkpoint.
func checkpointOf(t *testing.T, svc *placement.Service) *placement.Checkpoint {
	t.Helper()
	var buf bytes.Buffer
	if err := svc.WriteCheckpoint(&buf, nil); err != nil {
		t.Fatal(err)
	}
	cp, err := placement.DecodeCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}
