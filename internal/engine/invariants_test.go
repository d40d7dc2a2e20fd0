package engine

import (
	"math"
	"testing"

	"mapsched/internal/faults"
	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/sched"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
	"mapsched/internal/workload"
)

// TestRandomizedInvariants runs small randomized configurations under all
// three schedulers and checks global invariants:
//
//   - every job finishes within the horizon,
//   - every map and reduce task ends in TaskDone with sane timestamps,
//   - each reduce received exactly its expected shuffle input,
//   - the locality tallies cover every task and no remote tasks appear in
//     single-rack clusters,
//   - slot accounting returns to zero,
//   - the placement service audits clean and, since no trial injects
//     faults or speculates, counted exactly one acquire and one release
//     delta per task.
func TestRandomizedInvariants(t *testing.T) {
	rng := sim.NewRNG(2024)
	builders := []sched.Builder{
		sched.NewProbabilistic(sched.DefaultProbabilisticConfig()),
		sched.NewCoupling(),
		sched.NewFairDelay(),
	}
	for trial := 0; trial < 6; trial++ {
		cfg := DefaultConfig()
		cfg.Topology.Racks = 1 + rng.Intn(3)
		cfg.Topology.NodesPerRack = 4 + rng.Intn(8)
		cfg.MapSlotsPerNode = 1 + rng.Intn(4)
		cfg.ReduceSlotsPerNode = 1 + rng.Intn(2)
		cfg.HeartbeatInterval = 0.5 + rng.Float64()*3
		cfg.Seed = rng.Int63()
		cfg.CrossTraffic = rng.Intn(5)

		o := workload.Options{
			Scale:         25 + rng.Intn(30),
			Replication:   1 + rng.Intn(3),
			SubmitStagger: rng.Float64() * 2,
		}
		defs := workload.TableII()
		// Pick a random subset of 4 jobs.
		perm := rng.Perm(len(defs))
		subset := []workload.JobDef{defs[perm[0]], defs[perm[1]], defs[perm[2]], defs[perm[3]]}
		specs, err := workload.Specs(subset, o)
		if err != nil {
			t.Fatal(err)
		}

		b := builders[trial%len(builders)]
		s, err := New(cfg, specs, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Unfinished != 0 {
			t.Fatalf("trial %d (%s): %d unfinished", trial, res.Scheduler, res.Unfinished)
		}
		for _, j := range s.Jobs() {
			if !j.Done() {
				t.Fatalf("trial %d: job %s not done", trial, j.Spec.Name)
			}
			for _, m := range j.Maps {
				if m.State != job.TaskDone {
					t.Fatalf("trial %d: map %d state %v", trial, m.Index, m.State)
				}
				if m.Finish < m.Launch || m.Launch < j.Submitted {
					t.Fatalf("trial %d: map %d timestamps out of order", trial, m.Index)
				}
			}
			for _, r := range j.Reduces {
				if r.State != job.TaskDone {
					t.Fatalf("trial %d: reduce %d state %v", trial, r.Index, r.State)
				}
				if math.Abs(r.ShuffledBytes-r.ExpectedInput()) > 1 {
					t.Fatalf("trial %d: reduce %d shuffled %v, want %v",
						trial, r.Index, r.ShuffledBytes, r.ExpectedInput())
				}
			}
		}
		if got := res.MapLocality.Total(); got != totalMaps(s) {
			t.Fatalf("trial %d: locality covers %d of %d maps", trial, got, totalMaps(s))
		}
		if cfg.Topology.Racks == 1 && res.MapLocality.Remote != 0 {
			t.Fatalf("trial %d: remote maps in single rack", trial)
		}
		um, ur := s.state.UsedSlots()
		if um != 0 || ur != 0 {
			t.Fatalf("trial %d: %d map / %d reduce slots leaked", trial, um, ur)
		}
		if s.topo.Net().ActiveFlows() != cfg.CrossTraffic {
			t.Fatalf("trial %d: %d flows still active, want only the %d background ones",
				trial, s.topo.Net().ActiveFlows(), cfg.CrossTraffic)
		}
		if a := s.place.Audit(); !a.Clean() {
			t.Fatalf("trial %d: %v", trial, a)
		}
		tasks := 0
		for _, j := range s.Jobs() {
			tasks += j.NumMaps() + j.NumReduces()
		}
		if got, want := s.place.Epoch(), uint64(2*tasks); got != want {
			t.Fatalf("trial %d: placement epoch %d, want %d (one acquire and one release per task)", trial, got, want)
		}
	}
}

func totalMaps(s *Simulation) int {
	n := 0
	for _, j := range s.Jobs() {
		n += j.NumMaps()
	}
	return n
}

// TestNetworkByteAccounting forces every map remote by storing all blocks
// on node 0 while giving node 0 no slots... (not expressible directly), so
// instead it checks consistency: remote + local shuffle bytes equal the
// total intermediate volume.
func TestNetworkByteAccounting(t *testing.T) {
	cfg := tinyConfig()
	s, err := New(cfg, tinySpecs(t), sched.NewFairDelay())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, j := range s.Jobs() {
		for _, m := range j.Maps {
			want += m.TotalOut()
		}
	}
	got := res.ShuffleRemoteBytes + res.ShuffleLocalBytes
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("shuffle accounting: %v moved, %v produced", got, want)
	}
	if res.MapRemoteBytes < 0 {
		t.Fatal("negative map remote bytes")
	}
}

// TestHeartbeatIntervalAffectsGranularity checks that a coarser heartbeat
// cannot speed the batch up (it only delays offers).
func TestHeartbeatIntervalAffectsGranularity(t *testing.T) {
	run := func(hb float64) float64 {
		cfg := tinyConfig()
		cfg.HeartbeatInterval = hb
		s, err := New(cfg, tinySpecs(t), sched.NewFairDelay())
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
	fine, coarse := run(0.5), run(10)
	if coarse < fine*0.9 {
		t.Fatalf("coarse heartbeat (%vs makespan) beat fine one (%vs) by >10%%", coarse, fine)
	}
}

// TestEventsCounterAdvances ensures Result.Events reflects simulator work.
func TestEventsCounterAdvances(t *testing.T) {
	s, err := New(tinyConfig(), tinySpecs(t), sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Events < 100 {
		t.Fatalf("suspiciously few events: %d", res.Events)
	}
}

// TestForcedRemoteAccounting stores every block on one node while that
// node is heavily outnumbered by slots: most maps must fetch remotely and
// the MapRemoteBytes counter must reflect it.
func TestForcedRemoteAccounting(t *testing.T) {
	cfg := tinyConfig()
	o := workload.Options{
		Scale:         20,
		Replication:   1,
		SubmitStagger: 0,
		Placement:     hdfs.Subset{K: 1}, // all blocks on node 0
	}
	defs := []workload.JobDef{
		{JobID: "01", Kind: workload.Grep, InputGB: 10, Maps: 87, Reduces: 148},
	}
	specs, err := workload.Specs(defs, o)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg, specs, sched.NewFairDelay())
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
	if res.MapRemoteBytes == 0 {
		t.Fatal("no remote map bytes despite single-node storage")
	}
	// Node 0 can host at most its slots; the rest ran remotely.
	if res.MapLocality.Node >= res.MapLocality.Total() {
		t.Fatal("all maps claimed to be local on single-node storage")
	}
}

// progressOracle wraps a scheduler and checks, at every AssignReduce
// call on which a reduce decision can read map progress (some job has a
// pending reduce), that every running map's Progress equals its
// attempt's progress at ctx.Now (0 once the attempt died), and that it
// never moves backwards while the map keeps its launch and its attempt
// stays alive. It also counts the AssignMap calls made while maps run
// but no job has a pending reduce: their heartbeats skipped the refresh.
type progressOracle struct {
	sched.Scheduler
	t    *testing.T
	sim  *Simulation
	last map[*job.MapTask]progressMark

	checked, skipped int // reads checked; map offers on heartbeats that skipped the refresh
}

type progressMark struct {
	launch sim.Time
	dead   bool
	p      float64
}

// anyPendingReduce reports whether some job of ctx has a pending reduce.
func anyPendingReduce(ctx *sched.Context) bool {
	for _, j := range ctx.Jobs {
		if j.HasPending(job.ReduceKind) {
			return true
		}
	}
	return false
}

func (o *progressOracle) AssignMap(ctx *sched.Context, node topology.NodeID) *job.MapTask {
	if !anyPendingReduce(ctx) {
		running := false
		o.sim.eachRun(job.MapKind, func(*attempt) { running = true })
		if running {
			o.skipped++
		}
	}
	return o.Scheduler.AssignMap(ctx, node)
}

func (o *progressOracle) AssignReduce(ctx *sched.Context, node topology.NodeID) *job.ReduceTask {
	if !anyPendingReduce(ctx) {
		return o.Scheduler.AssignReduce(ctx, node)
	}
	if ctx.Now != o.sim.eng.Now() {
		o.t.Fatalf("ctx.Now %v, engine clock %v", ctx.Now, o.sim.eng.Now())
	}
	o.sim.eachRun(job.MapKind, func(a *attempt) {
		m := a.task.mapTask()
		if want := a.progress(ctx.Now); m.Progress != want {
			o.t.Fatalf("t=%v: map %s/%d progress %v, its attempt's %v",
				ctx.Now, m.Job.Spec.Name, m.Index, m.Progress, want)
		}
		if prev, ok := o.last[m]; ok && prev.launch == m.Launch && prev.dead == a.dead && m.Progress < prev.p {
			o.t.Fatalf("t=%v: map %s/%d progress fell from %v to %v",
				ctx.Now, m.Job.Spec.Name, m.Index, prev.p, m.Progress)
		}
		o.last[m] = progressMark{launch: m.Launch, dead: a.dead, p: m.Progress}
		o.checked++
	})
	return o.Scheduler.AssignReduce(ctx, node)
}

// progressSpecs builds two jobs whose maps run in several waves on one
// map slot per node, with fewer reduces than nodes.
func progressSpecs(t *testing.T) []job.Spec {
	t.Helper()
	specs, err := workload.Specs([]workload.JobDef{
		{JobID: "01", Kind: workload.Wordcount, InputGB: 20, Maps: 160, Reduces: 40},
		{JobID: "11", Kind: workload.Terasort, InputGB: 20, Maps: 199, Reduces: 45},
	}, workload.Options{Scale: 5, Replication: 3, SubmitStagger: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		specs[i].Profile.ComputeJitter = 0.45
	}
	return specs
}

// TestProgressVisibleToScheduler verifies that map progress is fresh at
// every reduce decision that can read it, under the schedulers whose
// reduce decisions read it, with a fault plan, and that the run also
// offers map slots while maps run and no job has a pending reduce (the
// heartbeats that skip the refresh).
func TestProgressVisibleToScheduler(t *testing.T) {
	// Enough reduce slots that every reduce launches while maps still
	// run, so later offers find nothing that reads progress.
	base := tinyConfig()
	base.ReduceSlotsPerNode = 4
	base.Topology.NodesPerRack = 8
	base.MapSlotsPerNode = 1
	faultCfg := base
	// Coupling's pacing keeps a reduce pending until the last maps run,
	// so its map offers with none pending come from the second crash:
	// detected after every reduce launched, it re-executes lost output.
	faultCfg.Faults.Crashes = []faults.NodeCrash{{Node: 1, At: 8}, {Node: 5, At: 20}}
	faultCfg.Faults.TaskFailProb = 0.15
	faultCfg.Faults.MaxTaskAttempts = 50
	for _, sc := range []struct {
		name string
		b    sched.Builder
	}{
		{"probabilistic", sched.NewProbabilistic(sched.DefaultProbabilisticConfig())},
		{"coupling", sched.NewCoupling()},
	} {
		for _, c := range []struct {
			name  string
			cfg   Config
			fired func(*Result) int
		}{
			{"faults", faultCfg, func(r *Result) int { return r.AttemptFailures }},
		} {
			t.Run(sc.name+"/"+c.name, func(t *testing.T) {
				o := &progressOracle{t: t, last: make(map[*job.MapTask]progressMark)}
				s, err := New(c.cfg, progressSpecs(t), func(env sched.Env) sched.Scheduler {
					o.Scheduler = sc.b(env)
					return o
				})
				if err != nil {
					t.Fatal(err)
				}
				o.sim = s
				res, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				if res.Unfinished != 0 {
					t.Fatalf("unfinished: %s", res)
				}
				if c.fired(res) == 0 {
					t.Fatalf("no %s fired: %s", c.name, res)
				}
				if o.checked == 0 || o.skipped == 0 {
					t.Fatalf("%d progress reads checked, %d map offers that skipped the refresh: want both > 0",
						o.checked, o.skipped)
				}
				// After the run every task is done, with Progress pinned to 1.
				for _, j := range s.Jobs() {
					for _, m := range j.Maps {
						if m.Progress != 1 {
							t.Fatalf("map %d progress %v after completion", m.Index, m.Progress)
						}
					}
				}
			})
		}
	}
}
