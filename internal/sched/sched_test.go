package sched

import (
	"testing"

	"mapsched/internal/cluster"
	"mapsched/internal/core"
	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/placement"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
)

// fixture builds a 2-rack/4-node-per-rack cluster with a placement
// decision service and a deterministic RNG.
type fixture struct {
	net   *topology.Cluster
	store *hdfs.Store
	place *placement.Service
	env   Env
	rng   *sim.RNG
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	spec := topology.DefaultSpec()
	spec.Racks = 2
	spec.NodesPerRack = 4
	net, err := topology.NewCluster(sim.NewEngine(), spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(7)
	store := hdfs.NewStore(net, rng.Fork("hdfs"))
	state, err := cluster.New(net.Size(), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	place, err := placement.NewService(placement.Deps{
		Net: net, Store: store, Slots: state, Mode: core.ModeHops,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{net: net, store: store, place: place, rng: rng}
	f.env = Env{Place: place, RNG: rng.Fork("sched")}
	return f
}

type placeAt struct{ nodes []topology.NodeID }

func (p placeAt) Name() string { return "fixed" }
func (p placeAt) Place(topology.Network, *sim.RNG, int) []topology.NodeID {
	return p.nodes
}

// addJob creates a job with one map per entry of blockNodes (each block
// replicated on exactly the given node) and nReduces reduce tasks.
func (f *fixture) addJob(t *testing.T, id job.ID, blockNodes []topology.NodeID, nReduces int) *job.Job {
	t.Helper()
	var maps []*job.MapTask
	for idx, n := range blockNodes {
		b, err := f.store.AddBlock(64e6, 1, placeAt{nodes: []topology.NodeID{n}})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, nReduces)
		for i := range out {
			out[i] = 1e6
		}
		maps = append(maps, &job.MapTask{
			Index: idx, Block: b, Size: 64e6, Out: out, OutputCurve: 1, Node: -1,
		})
	}
	reduces := make([]*job.ReduceTask, nReduces)
	for fi := range reduces {
		reduces[fi] = &job.ReduceTask{Index: fi, Node: -1}
	}
	return job.Assemble(id, job.Spec{
		Name: "test-job",
		Profile: job.Profile{
			Name: "test", MapSelectivity: 1, MapRate: 10e6, ReduceRate: 10e6,
		},
	}, maps, reduces)
}

// finish runs a map on node n and completes it, as the engine would.
func finish(m *job.MapTask, n topology.NodeID) {
	m.Run(n, 0)
	m.Complete(0)
}

// ctxFor offers the fixture's current snapshot: every node is free unless
// the test acquired its slots.
func (f *fixture) ctxFor(jobs ...*job.Job) *Context {
	v := f.place.Snapshot()
	return &Context{
		Jobs:        jobs,
		AvailMap:    v.AvailMap,
		AvailReduce: v.AvailReduce,
		Slowstart:   0.05,
	}
}

func TestProbabilisticPrefersLocalMap(t *testing.T) {
	f := newFixture(t)
	j := f.addJob(t, 1, []topology.NodeID{3, 5}, 2)
	p := NewProbabilistic(DefaultProbabilisticConfig())(f.env).(*Probabilistic)
	ctx := f.ctxFor(j)
	got := p.AssignMap(ctx, 3)
	if got == nil || got.Index != 0 {
		t.Fatalf("AssignMap(3) = %v, want the block-on-3 task", got)
	}
	got = p.AssignMap(ctx, 5)
	if got == nil || got.Index != 1 {
		t.Fatalf("AssignMap(5) = %v, want the block-on-5 task", got)
	}
}

func TestProbabilisticLocalFromLaterJobBeatsRemoteFromHead(t *testing.T) {
	f := newFixture(t)
	j1 := f.addJob(t, 1, []topology.NodeID{5}, 1) // fairest job, remote for node 0
	j2 := f.addJob(t, 2, []topology.NodeID{0}, 1) // later job, local on node 0
	// Make j1 "fairer" (fewer running): both have zero running; submission
	// order keeps j1 first.
	p := NewProbabilistic(DefaultProbabilisticConfig())(f.env).(*Probabilistic)
	got := p.AssignMap(f.ctxFor(j1, j2), 0)
	if got == nil || got.Job != j2 {
		t.Fatalf("node 0 should run the later job's local task, got %v", got)
	}
}

func TestProbabilisticDeterministicAlwaysAssigns(t *testing.T) {
	f := newFixture(t)
	j := f.addJob(t, 1, []topology.NodeID{5}, 1) // remote for node 0
	cfg := DefaultProbabilisticConfig()
	cfg.Deterministic = true
	p := NewProbabilistic(cfg)(f.env).(*Probabilistic)
	for i := 0; i < 10; i++ {
		if got := p.AssignMap(f.ctxFor(j), 0); got == nil {
			t.Fatal("deterministic variant declined a feasible assignment")
		}
		j.Maps[0].Reset()
	}
}

func TestProbabilisticBernoulliSometimesDeclines(t *testing.T) {
	f := newFixture(t)
	j := f.addJob(t, 1, []topology.NodeID{5}, 1) // remote: P ≈ 0.6
	p := NewProbabilistic(DefaultProbabilisticConfig())(f.env).(*Probabilistic)
	assigned, declined := 0, 0
	for i := 0; i < 200; i++ {
		if got := p.AssignMap(f.ctxFor(j), 0); got != nil {
			assigned++
		} else {
			declined++
		}
	}
	if assigned == 0 || declined == 0 {
		t.Fatalf("Bernoulli gate degenerate: %d assigned, %d declined", assigned, declined)
	}
}

func TestProbabilisticPminSkipsExpensiveNode(t *testing.T) {
	f := newFixture(t)
	// Block on node 0 (rack 0). Offer a slot on node 4 (rack 1, distance 4)
	// while every rack-0 node also has free slots: the average cost is far
	// below node 4's cost, so P < Pmin and the node is skipped.
	j := f.addJob(t, 1, []topology.NodeID{0}, 1)
	cfg := DefaultProbabilisticConfig()
	cfg.Pmin = 0.62 // above the cross-rack assignment probability
	p := NewProbabilistic(cfg)(f.env).(*Probabilistic)
	for n := topology.NodeID(5); n < 8; n++ { // only nodes 0-4 offer map slots
		for k := 0; k < 4; k++ {
			if err := f.place.ApplySlotAcquire(job.MapKind, n); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx := f.ctxFor(j)
	if got := p.AssignMap(ctx, 4); got != nil {
		t.Fatalf("expensive node accepted a task with P < Pmin: %v", got)
	}
	// The local node still assigns instantly.
	if got := p.AssignMap(ctx, 0); got == nil {
		t.Fatal("local node declined")
	}
}

func TestProbabilisticReduceSpread(t *testing.T) {
	f := newFixture(t)
	j1 := f.addJob(t, 1, []topology.NodeID{0, 1}, 4)
	j2 := f.addJob(t, 2, []topology.NodeID{2, 3}, 4)
	// Launch j1's maps so reduces have data and are eligible.
	for _, jj := range []*job.Job{j1, j2} {
		for _, m := range jj.Maps {
			finish(m, topology.NodeID(m.Index))
		}
	}
	// j1 already runs a reduce on node 6.
	j1.Reduces[0].Run(6, 0)
	cfg := DefaultProbabilisticConfig()
	cfg.Deterministic = true // remove randomness from this test
	p := NewProbabilistic(cfg)(f.env).(*Probabilistic)
	got := p.AssignReduce(f.ctxFor(j1, j2), 6)
	if got == nil {
		t.Fatal("node 6 got no reduce at all")
	}
	if got.Job == j1 {
		t.Fatalf("node 6 received a second running reduce of job 1 despite alternatives")
	}
	// With the rule disabled, job 1 (fair-first) may win the slot.
	cfg.SpreadReduces = false
	p2 := NewProbabilistic(cfg)(f.env).(*Probabilistic)
	if got := p2.AssignReduce(f.ctxFor(j1, j2), 6); got == nil {
		t.Fatal("spread-off variant declined")
	}
}

func TestProbabilisticReduceSecondPassWhenOnlyJobBlocked(t *testing.T) {
	f := newFixture(t)
	j := f.addJob(t, 1, []topology.NodeID{0}, 3)
	finish(j.Maps[0], 0)
	j.Reduces[0].Run(6, 0)
	cfg := DefaultProbabilisticConfig()
	cfg.Deterministic = true
	p := NewProbabilistic(cfg)(f.env).(*Probabilistic)
	// Node 6 already runs a reduce of the only job: the work-conserving
	// second pass must still hand out a task.
	if got := p.AssignReduce(f.ctxFor(j), 6); got == nil {
		t.Fatal("second pass did not fire for the only eligible job")
	}
}

func TestSlowstartGatesReduces(t *testing.T) {
	f := newFixture(t)
	j := f.addJob(t, 1, []topology.NodeID{0, 1, 2, 3}, 2)
	ctx := f.ctxFor(j)
	ctx.Slowstart = 0.5
	p := NewProbabilistic(DefaultProbabilisticConfig())(f.env).(*Probabilistic)
	if got := p.AssignReduce(ctx, 0); got != nil {
		t.Fatalf("reduce launched before slowstart: %v", got)
	}
	// Finish half the maps.
	for i := 0; i < 2; i++ {
		finish(j.Maps[i], topology.NodeID(i))
	}
	assigned := false
	for i := 0; i < 20 && !assigned; i++ {
		assigned = p.AssignReduce(ctx, 0) != nil
		if assigned {
			break
		}
	}
	if !assigned {
		t.Fatal("reduce never launched after slowstart reached")
	}
}

func TestFairDelayPrefersLocalThenWaits(t *testing.T) {
	f := newFixture(t)
	j := f.addJob(t, 1, []topology.NodeID{3}, 1)
	fd := NewFairDelay()(f.env).(*FairDelay)
	ctx := f.ctxFor(j)
	// Local node: immediate.
	if got := fd.AssignMap(ctx, 3); got == nil {
		t.Fatal("local offer declined")
	}
	j.Maps[0].Reset()
	// Non-local offers: the first fairNodeLocalSkips offers are declined.
	for i := 0; i < fairNodeLocalSkips; i++ {
		if got := fd.AssignMap(ctx, topology.NodeID(i%2)); got != nil {
			t.Fatalf("offer %d accepted before delay expired: %v", i+1, got)
		}
	}
	// Delay expired: rack-local accepted (node 0 is in rack 0 with node 3).
	if got := fd.AssignMap(ctx, 0); got == nil {
		t.Fatal("rack-local offer declined after delay expiry")
	}
}

func TestFairDelayForgetsSkipsOnAssign(t *testing.T) {
	f := newFixture(t)
	j := f.addJob(t, 1, []topology.NodeID{3}, 1)
	fd := NewFairDelay()(f.env).(*FairDelay)
	ctx := f.ctxFor(j)
	// A local assignment leaves no skip count behind.
	if got := fd.AssignMap(ctx, 3); got == nil {
		t.Fatal("local offer declined")
	}
	if len(fd.skips) != 0 {
		t.Fatalf("skip counts after a local assignment: %v", fd.skips)
	}
	j.Maps[0].Reset()
	// Neither does a delay-expired one (node 0 shares node 3's rack).
	var got *job.MapTask
	for i := 0; i <= fairNodeLocalSkips && got == nil; i++ {
		got = fd.AssignMap(ctx, 0)
	}
	if got == nil {
		t.Fatal("rack-local offer never accepted")
	}
	if len(fd.skips) != 0 {
		t.Fatalf("skip counts after a delay-expired assignment: %v", fd.skips)
	}
}

func TestFairDelayFallsBackToAnyNode(t *testing.T) {
	f := newFixture(t)
	j := f.addJob(t, 1, []topology.NodeID{0}, 1)
	fd := NewFairDelay()(f.env).(*FairDelay)
	ctx := f.ctxFor(j)
	// Offers from the other rack (node 7): declines until D1+D2 skips.
	for i := 0; i < fairNodeLocalSkips+fairRackLocalSkips; i++ {
		if got := fd.AssignMap(ctx, 7); got != nil {
			t.Fatalf("accepted after %d skips, before D1+D2", i)
		}
	}
	if got := fd.AssignMap(ctx, 7); got == nil {
		t.Fatal("never accepted a remote offer")
	}
}

func TestFairDelayReduceIsUnconstrained(t *testing.T) {
	f := newFixture(t)
	j := f.addJob(t, 1, []topology.NodeID{0}, 3)
	finish(j.Maps[0], 0)
	fd := NewFairDelay()(f.env).(*FairDelay)
	if got := fd.AssignReduce(f.ctxFor(j), 5); got == nil {
		t.Fatal("fair reduce assignment declined a free slot")
	}
}

func TestCouplingLocalAlwaysLaunches(t *testing.T) {
	f := newFixture(t)
	j := f.addJob(t, 1, []topology.NodeID{2}, 1)
	c := NewCoupling()(f.env).(*Coupling)
	if got := c.AssignMap(f.ctxFor(j), 2); got == nil {
		t.Fatal("coupling declined a local map")
	}
}

func TestCouplingRemoteIsProbabilistic(t *testing.T) {
	f := newFixture(t)
	j := f.addJob(t, 1, []topology.NodeID{2}, 1)
	c := NewCoupling()(f.env).(*Coupling)
	assigned, declined := 0, 0
	for i := 0; i < 300; i++ {
		if got := c.AssignMap(f.ctxFor(j), 7); got != nil {
			assigned++
			j.Maps[0].Reset()
		} else {
			declined++
		}
	}
	if assigned == 0 || declined == 0 {
		t.Fatalf("coupling remote gate degenerate: %d/%d", assigned, declined)
	}
	if assigned > declined {
		t.Fatalf("remote acceptance %d should be rarer than decline %d at PRemote=0.1", assigned, declined)
	}
}

func TestCouplingPacesReduces(t *testing.T) {
	f := newFixture(t)
	j := f.addJob(t, 1, []topology.NodeID{0, 1, 2, 3}, 4)
	c := NewCoupling()(f.env).(*Coupling)
	ctx := f.ctxFor(j)
	ctx.Slowstart = 0
	// No map progress: pacing allows ceil(0×4) = 0 reduces.
	if got := c.AssignReduce(ctx, 0); got != nil {
		t.Fatalf("coupling launched a reduce with zero map progress: %v", got)
	}
	// Half the maps done: allow 2 concurrent reduces.
	for i := 0; i < 2; i++ {
		finish(j.Maps[i], topology.NodeID(i))
	}
	launched := 0
	for n := 0; n < 8; n++ {
		if got := c.AssignReduce(ctx, topology.NodeID(n)); got != nil {
			got.Run(topology.NodeID(n), 0)
			launched++
		}
	}
	if launched == 0 {
		t.Fatal("pacing never released a reduce")
	}
	if launched > 2 {
		t.Fatalf("pacing released %d reduces at 50%% map progress, want <= 2", launched)
	}
}

func TestCouplingCentralityWaitBound(t *testing.T) {
	f := newFixture(t)
	j := f.addJob(t, 1, []topology.NodeID{0}, 1)
	finish(j.Maps[0], 0)
	c := NewCoupling()(f.env).(*Coupling)
	ctx := f.ctxFor(j)
	// Node 7 is not the centrality node (node 0 is, it has all the data).
	declines := 0
	for i := 0; i < 10; i++ {
		if got := c.AssignReduce(ctx, 7); got != nil {
			break
		}
		declines++
	}
	if declines == 0 {
		t.Fatal("coupling accepted a non-centrality node immediately")
	}
	if declines > couplingMaxWaitRounds {
		t.Fatalf("coupling waited %d rounds, bound is %d", declines, couplingMaxWaitRounds)
	}
}

func TestOrderJobsFairVsFIFO(t *testing.T) {
	f := newFixture(t)
	j1 := f.addJob(t, 1, []topology.NodeID{0, 1}, 1)
	j2 := f.addJob(t, 2, []topology.NodeID{2, 3}, 1)
	// j1 has one running map, j2 none: fair order puts j2 first.
	j1.Maps[0].Run(0, 0)
	ctx := f.ctxFor(j1, j2)
	fair := placement.OrderJobs(ctx, FairJobs, job.MapKind)
	if len(fair) != 2 || fair[0] != j2 {
		t.Fatalf("fair order = %v, want j2 first", ids(fair))
	}
	fifo := placement.OrderJobs(ctx, FIFOJobs, job.MapKind)
	if len(fifo) != 2 || fifo[0] != j1 {
		t.Fatalf("fifo order = %v, want submission order", ids(fifo))
	}
}

func ids(jobs []*job.Job) []job.ID {
	out := make([]job.ID, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}

func TestOrderJobsSkipsDrainedJobs(t *testing.T) {
	f := newFixture(t)
	j := f.addJob(t, 1, []topology.NodeID{0}, 1)
	finish(j.Maps[0], 0)
	if got := placement.OrderJobs(f.ctxFor(j), FairJobs, job.MapKind); len(got) != 0 {
		t.Fatalf("job with no pending maps still offered: %v", ids(got))
	}
}

func TestSchedulerNames(t *testing.T) {
	f := newFixture(t)
	for _, b := range []Builder{
		NewProbabilistic(DefaultProbabilisticConfig()),
		NewCoupling(),
		NewFairDelay(),
	} {
		if b(f.env).Name() == "" {
			t.Fatal("empty scheduler name")
		}
	}
	if FairJobs.String() != "fair" || FIFOJobs.String() != "fifo" {
		t.Fatal("policy names wrong")
	}
}

func TestNilEstimatorDefaults(t *testing.T) {
	f := newFixture(t)
	cfg := ProbabilisticConfig{Pmin: 0.4, SpreadReduces: true}
	p := NewProbabilistic(cfg)(f.env).(*Probabilistic)
	if p.cfg.Estimator == nil {
		t.Fatal("nil estimator not defaulted")
	}
}

// TestProbabilisticLocalFallbackWhenGateDeclines pins the Algorithm 1
// P = 1 rule when the maximum-saving candidate is remote: a large remote
// map out-saves a small data-local one, the gate rejects it (P < P_min),
// and the slot must still go to the local task instead of idling.
func TestProbabilisticLocalFallbackWhenGateDeclines(t *testing.T) {
	f := newFixture(t)
	cfg := DefaultProbabilisticConfig()
	cfg.Pmin = 0.9 // above the remote candidate's P ≈ 0.75: gate always rejects
	s := NewProbabilistic(cfg)(f.env)

	// Map 0: 64 MB block on node 1 (same rack as the offered node 0, so
	// its saving C_avg−C = (2.75−2)·64e6 dominates). Map 1: 1 MB block on
	// node 0 itself (local, saving 2.75·1e6).
	j := f.addJob(t, 1, []topology.NodeID{1, 0}, 1)
	j.Maps[1].Size = 1e6

	got := s.AssignMap(f.ctxFor(j), 0)
	if got != j.Maps[1] {
		t.Fatalf("assigned %+v, want the data-local fallback map 1", got)
	}

	// Same offer on node 3 (no local candidate there): the gate rejection
	// must leave the slot idle.
	j2 := f.addJob(t, 2, []topology.NodeID{1, 0}, 1)
	if got := s.AssignMap(f.ctxFor(j2), 3); got != nil {
		t.Fatalf("assigned %+v on a node with no local candidate, want nil", got)
	}
}

// localOnly is a test probability model that only ever accepts data-local
// placements: P = 1 at zero cost, 0 otherwise.
type localOnly struct{}

func (localOnly) Name() string { return "local-only" }
func (localOnly) Prob(avg, cost float64) float64 {
	if cost <= 0 {
		return 1
	}
	return 0
}

// TestProbabilisticUsesConfiguredModel pins satellite 3: the probability
// that gates an assignment is computed by cfg.Model, not hard-wired to
// the exponential formula. Under a model that zeroes every remote
// placement the scheduler must refuse a remote-only offer that the
// default model (deterministically) accepts.
func TestProbabilisticUsesConfiguredModel(t *testing.T) {
	f := newFixture(t)
	offer := topology.NodeID(3) // no replica on node 3: remote-only

	base := DefaultProbabilisticConfig()
	base.Deterministic = true // accept whenever P >= Pmin: no draw noise
	exp := NewProbabilistic(base)(f.env)
	j1 := f.addJob(t, 1, []topology.NodeID{0, 1}, 1)
	if got := exp.AssignMap(f.ctxFor(j1), offer); got == nil {
		t.Fatal("exponential model rejected a cheap remote placement")
	}

	strict := base
	strict.Model = localOnly{}
	lo := NewProbabilistic(strict)(f.env)
	j2 := f.addJob(t, 2, []topology.NodeID{0, 1}, 1)
	if got := lo.AssignMap(f.ctxFor(j2), offer); got != nil {
		t.Fatalf("local-only model assigned remote map %+v, want nil", got)
	}
	// The model must still pass data-local placements through (P = 1).
	j3 := f.addJob(t, 3, []topology.NodeID{offer}, 1)
	if got := lo.AssignMap(f.ctxFor(j3), offer); got != j3.Maps[0] {
		t.Fatalf("local-only model missed the local map, got %+v", got)
	}
}
