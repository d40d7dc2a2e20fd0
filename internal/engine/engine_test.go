package engine

import (
	"math"
	"testing"

	"mapsched/internal/core"
	"mapsched/internal/job"
	"mapsched/internal/metrics"
	"mapsched/internal/sched"
	"mapsched/internal/topology"
	"mapsched/internal/workload"
)

// TaskLocality returns map+reduce locality tallies merged (Table III
// counts tasks of both kinds).
func (r *Result) TaskLocality() metrics.LocalityCount {
	l := r.MapLocality
	l.Merge(r.ReduceLocality)
	return l
}

// JobByName finds a job result; ok is false when absent.
func (r *Result) JobByName(name string) (JobResult, bool) {
	for _, j := range r.Jobs {
		if j.Name == name {
			return j, true
		}
	}
	return JobResult{}, false
}

// leakedRecords returns the IDs of jobs whose engine record is still
// held. After a run in which every job ended, each record — running
// tasks, retry and blacklist tallies and tenancy —
// must have been released.
func leakedRecords(s *Simulation) []job.ID {
	var ids []job.ID
	for i, rec := range s.recs {
		if rec != nil {
			ids = append(ids, job.ID(i+1))
		}
	}
	return ids
}

// tinyConfig is a small cluster that keeps tests fast.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Topology.Racks = 2
	cfg.Topology.NodesPerRack = 4
	return cfg
}

// tinySpecs builds a couple of small jobs.
func tinySpecs(t *testing.T) []job.Spec {
	t.Helper()
	o := workload.Options{Scale: 40, Replication: 2, SubmitStagger: 1}
	defs := []workload.JobDef{
		{JobID: "01", Kind: workload.Wordcount, InputGB: 10, Maps: 88, Reduces: 157},
		{JobID: "11", Kind: workload.Terasort, InputGB: 10, Maps: 143, Reduces: 190},
		{JobID: "21", Kind: workload.Grep, InputGB: 10, Maps: 87, Reduces: 148},
	}
	specs, err := workload.Specs(defs, o)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

func builders() map[string]sched.Builder {
	return map[string]sched.Builder{
		"probabilistic": sched.NewProbabilistic(sched.DefaultProbabilisticConfig()),
		"coupling":      sched.NewCoupling(),
		"fair":          sched.NewFairDelay(),
	}
}

func TestAllSchedulersCompleteSmallBatch(t *testing.T) {
	for name, b := range builders() {
		t.Run(name, func(t *testing.T) {
			s, err := New(tinyConfig(), tinySpecs(t), b)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Unfinished != 0 {
				t.Fatalf("%d jobs unfinished: %s", res.Unfinished, res)
			}
			if len(res.Jobs) != 3 {
				t.Fatalf("%d job results", len(res.Jobs))
			}
			wantMaps, wantReds := 0, 0
			for _, j := range s.Jobs() {
				wantMaps += j.NumMaps()
				wantReds += j.NumReduces()
			}
			if len(res.MapTimes) != wantMaps {
				t.Fatalf("%d map times, want %d", len(res.MapTimes), wantMaps)
			}
			if len(res.ReduceTimes) != wantReds {
				t.Fatalf("%d reduce times, want %d", len(res.ReduceTimes), wantReds)
			}
			for _, d := range res.MapTimes {
				if d <= 0 {
					t.Fatal("non-positive map task time")
				}
			}
			if res.Makespan <= 0 {
				t.Fatal("zero makespan")
			}
			if res.MapUtilization <= 0 || res.MapUtilization > 1 {
				t.Fatalf("map utilization %v outside (0,1]", res.MapUtilization)
			}
			if res.ReduceUtilization <= 0 || res.ReduceUtilization > 1 {
				t.Fatalf("reduce utilization %v outside (0,1]", res.ReduceUtilization)
			}
			// Locality tallies cover every task.
			if res.MapLocality.Total() != wantMaps {
				t.Fatalf("map locality covers %d of %d tasks", res.MapLocality.Total(), wantMaps)
			}
			if res.ReduceLocality.Total() != wantReds {
				t.Fatalf("reduce locality covers %d of %d tasks", res.ReduceLocality.Total(), wantReds)
			}
			// Completion ordering sane.
			for _, jr := range res.Jobs {
				if !jr.Finished() || jr.Completion <= 0 {
					t.Fatalf("job %s not finished: %+v", jr.Name, jr)
				}
				if jr.Finish < jr.Submit {
					t.Fatalf("job %s finished before submit", jr.Name)
				}
			}
		})
	}
}

func TestShuffleConservation(t *testing.T) {
	// Every reduce receives exactly the bytes its maps produced for it.
	s, err := New(tinyConfig(), tinySpecs(t), sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, j := range s.Jobs() {
		for _, r := range j.Reduces {
			want := r.ExpectedInput()
			if math.Abs(r.ShuffledBytes-want) > 1 {
				t.Fatalf("job %s reduce %d shuffled %v bytes, want %v",
					j.Spec.Name, r.Index, r.ShuffledBytes, want)
			}
		}
		for _, m := range j.Maps {
			if m.State != job.TaskDone {
				t.Fatalf("map %d of %s not done", m.Index, j.Spec.Name)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) *Result {
		cfg := tinyConfig()
		cfg.Seed = seed
		s, err := New(cfg, tinySpecs(t), sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(7), run(7)
	if a.Makespan != b.Makespan || a.Events != b.Events {
		t.Fatalf("same seed diverged: makespan %v vs %v, events %d vs %d",
			a.Makespan, b.Makespan, a.Events, b.Events)
	}
	for i := range a.Jobs {
		if a.Jobs[i].Completion != b.Jobs[i].Completion {
			t.Fatalf("job %s completion diverged", a.Jobs[i].Name)
		}
	}
	c := run(8)
	if c.Makespan == a.Makespan && c.Events == a.Events {
		t.Log("warning: different seeds produced identical runs (possible but unlikely)")
	}
}

func TestHorizonAbort(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxSimTime = 3 // far too short
	s, err := New(cfg, tinySpecs(t), sched.NewFairDelay())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished == 0 {
		t.Fatal("all jobs finished within 10s horizon, expected abort")
	}
}

func TestCrossTrafficSlowsRun(t *testing.T) {
	base := func(ct int) float64 {
		cfg := tinyConfig()
		cfg.CrossTraffic = ct
		s, err := New(cfg, tinySpecs(t), sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Unfinished != 0 {
			t.Fatalf("unfinished jobs under cross traffic %d", ct)
		}
		return res.Makespan
	}
	quiet := base(0)
	busy := base(30)
	if busy <= quiet {
		t.Fatalf("cross traffic did not slow the run: %v vs %v", busy, quiet)
	}
}

func TestNetworkConditionModeRuns(t *testing.T) {
	cfg := tinyConfig()
	cfg.CostMode = 1 // core.ModeNetworkCondition
	s, err := New(cfg, tinySpecs(t), sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Fatalf("unfinished jobs in network-condition mode: %s", res)
	}
}

func TestConfigValidation(t *testing.T) {
	mut := []func(*Config){
		func(c *Config) { c.MapSlotsPerNode = 0 },
		func(c *Config) { c.ReduceSlotsPerNode = 0 },
		func(c *Config) { c.HeartbeatInterval = 0 },
		func(c *Config) { c.CrossTraffic = -1 },
		func(c *Config) { c.MaxSimTime = -5 },
		func(c *Config) { c.CostMode = core.Mode(7) },
	}
	for i, m := range mut {
		cfg := DefaultConfig()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConfigRejectsNonFinite sets each float field of Config to NaN and
// ±Inf: Validate must reject every one (NaN passes a plain x <= 0 test,
// and a NaN heartbeat interval made Run spin forever) while accepting the
// same field at a finite value.
func TestConfigRejectsNonFinite(t *testing.T) {
	cases := []struct {
		name string
		ok   float64
		set  func(*Config, float64)
	}{
		{"HeartbeatInterval", 3, func(c *Config, x float64) { c.HeartbeatInterval = x }},
		{"MaxSimTime", 100, func(c *Config, x float64) { c.MaxSimTime = x }},
		{"HeartbeatExpiry", 30, func(c *Config, x float64) { c.HeartbeatExpiry = x }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.set(&cfg, tc.ok)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s = %v rejected: %v", tc.name, tc.ok, err)
			}
			for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				cfg := DefaultConfig()
				tc.set(&cfg, x)
				if err := cfg.Validate(); err == nil {
					t.Errorf("%s = %v accepted", tc.name, x)
				}
			}
		})
	}
}

func TestNewValidation(t *testing.T) {
	b := sched.NewFairDelay()
	if _, err := New(DefaultConfig(), nil, b); err == nil {
		t.Error("no specs accepted")
	}
	if _, err := New(DefaultConfig(), tinySpecs(t), nil); err == nil {
		t.Error("nil builder accepted")
	}
	bad := DefaultConfig()
	bad.HeartbeatInterval = -1
	if _, err := New(bad, tinySpecs(t), b); err == nil {
		t.Error("bad config accepted")
	}
}

func TestRunTwiceFails(t *testing.T) {
	s, err := New(tinyConfig(), tinySpecs(t), sched.NewFairDelay())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("second Run did not fail")
	}
}

func TestSingleRackHasNoRemoteTasks(t *testing.T) {
	// The paper's testbed was one rack: Table III reports 0% remote.
	cfg := DefaultConfig()
	cfg.Topology.Racks = 1
	cfg.Topology.NodesPerRack = 8
	s, err := New(cfg, tinySpecs(t), sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MapLocality.Remote != 0 || res.ReduceLocality.Remote != 0 {
		t.Fatalf("remote tasks in a single rack: map=%d reduce=%d",
			res.MapLocality.Remote, res.ReduceLocality.Remote)
	}
}

func TestResultHelpers(t *testing.T) {
	s, err := New(tinyConfig(), tinySpecs(t), sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	cdf := res.JobCompletionCDF()
	if cdf.N() != 3 {
		t.Fatalf("completion CDF over %d jobs", cdf.N())
	}
	if _, ok := res.JobByName("Wordcount_10GB"); !ok {
		t.Fatal("JobByName missed an existing job")
	}
	if _, ok := res.JobByName("nope"); ok {
		t.Fatal("JobByName found a phantom job")
	}
	tl := res.TaskLocality()
	if tl.Total() != res.MapLocality.Total()+res.ReduceLocality.Total() {
		t.Fatal("TaskLocality does not merge map+reduce")
	}
	if res.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestReduceSpreadInvariantUnderProbabilistic(t *testing.T) {
	// Algorithm 2 line 1 (with its work-conserving relaxation when no
	// other candidate exists): the spread rule must sharply cut the number
	// of same-job reduce pairs that overlap in time on one node.
	// Use a workload with several concurrently-eligible jobs so the first
	// pass always has alternatives and the rule can bind.
	o := workload.Options{Scale: 10, Replication: 2, SubmitStagger: 0}
	defs := []workload.JobDef{
		{JobID: "01", Kind: workload.Wordcount, InputGB: 10, Maps: 88, Reduces: 157},
		{JobID: "11", Kind: workload.Terasort, InputGB: 10, Maps: 143, Reduces: 190},
		{JobID: "21", Kind: workload.Grep, InputGB: 10, Maps: 87, Reduces: 148},
	}
	specs, err := workload.Specs(defs, o)
	if err != nil {
		t.Fatal(err)
	}
	overlaps := func(spread bool) int {
		cfg := sched.DefaultProbabilisticConfig()
		cfg.SpreadReduces = spread
		s, err := New(tinyConfig(), specs, sched.NewProbabilistic(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, j := range s.Jobs() {
			byNode := map[topology.NodeID][]*job.ReduceTask{}
			for _, r := range j.Reduces {
				byNode[r.Node] = append(byNode[r.Node], r)
			}
			for _, list := range byNode {
				for a := 0; a < len(list); a++ {
					for b := a + 1; b < len(list); b++ {
						ra, rb := list[a], list[b]
						if ra.Launch < rb.Finish && rb.Launch < ra.Finish {
							total++
						}
					}
				}
			}
		}
		return total
	}
	on, off := overlaps(true), overlaps(false)
	if on > off/2 {
		t.Fatalf("spread rule ineffective: %d overlapping pairs with rule, %d without", on, off)
	}
}

func TestUtilizationWindowEndsAtMakespan(t *testing.T) {
	// The horizon default (24h) must not dilute utilization of a run that
	// finishes in minutes.
	s, err := New(tinyConfig(), tinySpecs(t), sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MapUtilization < 0.05 {
		t.Fatalf("map utilization %v suspiciously low — diluted window?", res.MapUtilization)
	}
}
