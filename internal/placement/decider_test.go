package placement

import (
	"fmt"
	"testing"

	"mapsched/internal/cluster"
	"mapsched/internal/core"
	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
	"mapsched/internal/workload"
)

// fixture builds a 2-rack/4-node-per-rack cluster with a decision
// service and a deterministic RNG.
type fixture struct {
	net   *topology.Cluster
	store *hdfs.Store
	slots *cluster.State
	svc   *Service
	rng   *sim.RNG
}

func newFixture(t testing.TB) *fixture {
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
	slots, err := cluster.New(net.Size(), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(Deps{Net: net, Store: store, Slots: slots, Mode: core.ModeHops})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{net: net, store: store, slots: slots, svc: svc, rng: rng}
}

// TestNewServiceRejectsBadDeps covers every error return of NewService:
// each row breaks one dependency of an otherwise valid set, and the
// constructor must report it rather than panic or build a Service.
func TestNewServiceRejectsBadDeps(t *testing.T) {
	spec := topology.DefaultSpec()
	spec.Racks = 2
	spec.NodesPerRack = 4
	newNet := func() *topology.Cluster {
		net, err := topology.NewCluster(sim.NewEngine(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	newSlots := func(n int) *cluster.State {
		slots, err := cluster.New(n, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		return slots
	}
	valid := func() Deps {
		net := newNet()
		return Deps{Net: net, Store: hdfs.NewStore(net, sim.NewRNG(1)), Slots: newSlots(net.Size()), Mode: core.ModeHops}
	}
	if _, err := NewService(valid()); err != nil {
		t.Fatalf("valid deps rejected: %v", err)
	}
	sameRate := valid()
	sameRate.Rate = sameRate.Net
	if _, err := NewService(sameRate); err != nil {
		t.Fatalf("Rate equal to Net rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Deps)
	}{
		{"nil_net", func(d *Deps) { d.Net = nil }},
		{"nil_slots", func(d *Deps) { d.Slots = nil }},
		{"nil_store", func(d *Deps) { d.Store = nil }},
		{"node_count_mismatch", func(d *Deps) { d.Slots = newSlots(d.Net.Size() + 1) }},
		{"rate_not_net", func(d *Deps) { d.Rate = newNet() }},
		{"unknown_cost_mode", func(d *Deps) { d.Mode = core.Mode(7) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := valid()
			tc.mutate(&d)
			svc, err := NewService(d)
			if err == nil {
				t.Fatal("NewService accepted the deps")
			}
			if svc != nil {
				t.Fatalf("NewService returned a Service beside error %v", err)
			}
		})
	}
}

func (f *fixture) decider(cfg Config) *Decider {
	return NewDecider(f.svc, cfg, f.rng.Fork("sched"), nil)
}

type placeAt struct{ nodes []topology.NodeID }

func (p placeAt) Name() string { return "fixed" }
func (p placeAt) Place(topology.Network, *sim.RNG, int) []topology.NodeID {
	return p.nodes
}

// addJob creates a job with one map per entry of blockNodes (each block
// replicated on exactly the given node) and nReduces reduce tasks.
func (f *fixture) addJob(t testing.TB, id job.ID, blockNodes []topology.NodeID, nReduces int) *job.Job {
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

func allNodes(n int) []topology.NodeID {
	out := make([]topology.NodeID, n)
	for i := range out {
		out[i] = topology.NodeID(i)
	}
	return out
}

// reqFor offers the fixture's current snapshot, where every node is free.
func (f *fixture) reqFor(jobs ...*job.Job) *Request {
	v := f.svc.Snapshot()
	return &Request{
		Jobs:        jobs,
		AvailMap:    v.AvailMap,
		AvailReduce: v.AvailReduce,
		Slowstart:   0.05,
	}
}

func finishMaps(j *job.Job) *job.Job {
	for _, m := range j.Maps {
		m.Run(topology.NodeID(m.Index), 0)
		m.Complete(0)
	}
	return j
}

// TestSweepEvictsUnderBalancedChurn pins the sweep trigger: the coster
// cache must drop a departed job as soon as the live set changes, even
// when one job leaves exactly as another arrives so the cache size never
// exceeds the live-set size (the leak the old "cache > live" trigger
// missed), and the first decision after several departures must drop
// them all.
func TestSweepEvictsUnderBalancedChurn(t *testing.T) {
	f := newFixture(t)
	d := f.decider(DefaultConfig())

	j1 := finishMaps(f.addJob(t, 1, []topology.NodeID{0}, 2))
	j2 := finishMaps(f.addJob(t, 2, []topology.NodeID{1}, 2))
	d.PlaceReduce(f.reqFor(j1, j2), 0)
	if len(d.costerCache) != 2 {
		t.Fatalf("cache holds %d jobs after first offer, want 2", len(d.costerCache))
	}

	// Balanced churn: j1 leaves, j3 arrives, live size stays 2.
	j3 := finishMaps(f.addJob(t, 3, []topology.NodeID{2}, 2))
	d.PlaceReduce(f.reqFor(j2, j3), 1)
	if _, dead := d.costerCache[j1.ID]; dead {
		t.Fatal("departed job survived a balanced-churn sweep")
	}
	for id := range d.costerCache {
		if id != j2.ID && id != j3.ID {
			t.Fatalf("cache holds unknown job %d", id)
		}
	}

	// And again: every job-set change sweeps, not just size excursions.
	j4 := finishMaps(f.addJob(t, 4, []topology.NodeID{3}, 2))
	d.PlaceReduce(f.reqFor(j3, j4), 2)
	if _, dead := d.costerCache[j2.ID]; dead {
		t.Fatal("departed job survived the second balanced-churn sweep")
	}

	// Departures can pile up between decisions: the engine offers no
	// slot while no job has a pending task of its kind. Two jobs with
	// cached costers and map-cost rows leave with no call in between,
	// and the next call evicts both.
	half := func(id job.ID, a, b topology.NodeID) *job.Job {
		j := f.addJob(t, id, []topology.NodeID{a, b}, 2)
		j.Maps[0].Run(a, 0)
		j.Maps[0].Complete(0)
		return j
	}
	j5, j6 := half(5, 4, 5), half(6, 6, 7)
	d.PlaceMap(f.reqFor(j3, j4, j5, j6), 0)
	d.PlaceReduce(f.reqFor(j3, j4, j5, j6), 3)
	if len(d.costerCache) != 4 || d.cost.MapRows() != 2 {
		t.Fatalf("%d cached costers and %d map-cost rows for four jobs, two with a pending map: want 4 and 2",
			len(d.costerCache), d.cost.MapRows())
	}
	j7 := finishMaps(f.addJob(t, 7, []topology.NodeID{0}, 2))
	d.PlaceReduce(f.reqFor(j3, j4, j7), 3)
	for _, j := range []*job.Job{j5, j6} {
		if _, dead := d.costerCache[j.ID]; dead {
			t.Fatalf("job %d survived the first decision after it left", j.ID)
		}
	}
	if got := d.cost.MapRows(); got != 0 {
		t.Fatalf("%d map-cost rows left after both jobs with rows left", got)
	}
}

// TestSweepForgetsMapRowsOfEveryDepartedJob pins the map-row half of the
// sweep: a job that leaves the live set before any reduce decision (a
// failed job, say) must not keep its map-cost rows.
func TestSweepForgetsMapRowsOfEveryDepartedJob(t *testing.T) {
	f := newFixture(t)
	d := f.decider(DefaultConfig())
	j1 := f.addJob(t, 1, []topology.NodeID{0, 1, 2}, 1)
	j2 := f.addJob(t, 2, []topology.NodeID{3, 4}, 1)
	// Node 7 holds no replica, so the scan costs every pending map.
	d.PlaceMap(f.reqFor(j1, j2), 7)
	if got := d.cost.MapRows(); got != 5 {
		t.Fatalf("%d map-cost rows after costing both jobs, want 5", got)
	}
	d.PlaceMap(f.reqFor(j2), 7)
	if got := d.cost.MapRows(); got != 2 {
		t.Fatalf("%d map-cost rows after job 1 left, want 2", got)
	}
}

// TestPlaceMapOutcomeBreakdown checks the Outcome mirrors the decision:
// a data-local candidate is assigned instantly with P = 1, and a remote
// candidate under a prohibitive P_min is refused with the full breakdown.
func TestPlaceMapOutcomeBreakdown(t *testing.T) {
	f := newFixture(t)
	d := f.decider(DefaultConfig())
	j := f.addJob(t, 1, []topology.NodeID{3}, 1)

	m, out := d.PlaceMap(f.reqFor(j), 3)
	if m == nil || m.Index != 0 {
		t.Fatalf("PlaceMap(3) = %v, want the block-on-3 task", m)
	}
	if out.Draw != "local" || out.C != 0 || out.P != 1 {
		t.Fatalf("local outcome = %+v, want draw=local C=0 P=1", out)
	}
	if out.Torn {
		t.Fatal("single-threaded decision reported a torn snapshot")
	}

	strict := DefaultConfig()
	strict.Pmin = 1.1 // no probability passes: every remote offer skips
	ds := f.decider(strict)
	j2 := f.addJob(t, 2, []topology.NodeID{3}, 1)
	m, out = ds.PlaceMap(f.reqFor(j2), 0)
	if m != nil {
		t.Fatalf("PlaceMap under Pmin=1.1 assigned %v, want nil", m)
	}
	if out.Draw != "below_pmin" || out.C == 0 || out.P >= 1.1 {
		t.Fatalf("gated outcome = %+v, want draw=below_pmin with C>0", out)
	}
	if out.PMin != 1.1 {
		t.Fatalf("outcome PMin = %v, want 1.1", out.PMin)
	}
}

// TestEvaluateMapMatchesPlaceMap checks the gate-free evaluation returns
// the same candidate and breakdown the deciding path uses, and consumes
// no randomness doing it.
func TestEvaluateMapMatchesPlaceMap(t *testing.T) {
	f := newFixture(t)
	cfg := DefaultConfig()
	cfg.Deterministic = true // placing must not consume RNG either
	d := f.decider(cfg)
	j := f.addJob(t, 1, []topology.NodeID{5}, 1) // remote for node 0

	ev := d.EvaluateMap(f.reqFor(j), 0)
	if !ev.HasBest || ev.InstantLocal {
		t.Fatalf("evaluation = %+v, want a non-local best", ev)
	}
	m, out := d.PlaceMap(f.reqFor(j), 0)
	if m != ev.Best.MapTask {
		t.Fatalf("PlaceMap chose %v, evaluation predicted %v", m, ev.Best.MapTask)
	}
	if out.C != ev.Best.Cost || out.CAvg != ev.Best.AvgCost || out.P != ev.Best.Prob {
		t.Fatalf("outcome %+v disagrees with evaluation %+v", out, ev.Best)
	}
}

// TestServiceDeltasMoveEpochAndAvail checks the delta vocabulary: slot,
// replica, offline/blacklist and link deltas bump the epoch and keep the
// availability snapshots materialized and consistent.
func TestServiceDeltasMoveEpochAndAvail(t *testing.T) {
	f := newFixture(t)
	base := f.svc.Epoch()
	v0 := f.svc.Snapshot()
	if v0.AvailMap.Nodes.Len() != 8 || v0.AvailReduce.Nodes.Len() != 8 {
		t.Fatalf("fresh service avail = %d/%d nodes, want 8/8", v0.AvailMap.Nodes.Len(), v0.AvailReduce.Nodes.Len())
	}

	if err := f.svc.ApplySlotAcquire(job.ReduceKind, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.svc.ApplySlotAcquire(job.ReduceKind, 2); err != nil {
		t.Fatal(err)
	}
	v := f.svc.Snapshot()
	if v.AvailReduce.Nodes.Len() != 7 {
		t.Fatalf("after filling node 2's reduce slots: %d avail, want 7", v.AvailReduce.Nodes.Len())
	}
	f.svc.ApplySlotRelease(job.ReduceKind, 2)
	if n := f.svc.Snapshot().AvailReduce.Nodes.Len(); n != 8 {
		t.Fatalf("after release: %d avail, want 8", n)
	}

	f.svc.ApplyNodeOffline(5, true)
	f.svc.ApplyNodeBlacklist(6, true)
	v = f.svc.Snapshot()
	if v.AvailMap.Nodes.Len() != 6 {
		t.Fatalf("after offline+blacklist: %d map-avail, want 6", v.AvailMap.Nodes.Len())
	}
	f.svc.ApplyNodeOffline(5, false)
	f.svc.ApplyNodeBlacklist(6, false)

	id, err := f.store.AddBlock(64e6, 2, placeAt{nodes: []topology.NodeID{1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.svc.ApplyNodeReplicaLoss(1); err != nil || n != 1 {
		t.Fatalf("ApplyNodeReplicaLoss(1) removed %d replicas (err %v), want 1", n, err)
	}
	if got := f.store.Replicas(id); len(got) != 1 || got[0] != 4 {
		t.Fatalf("replicas after losing node 1 = %v, want [4]", got)
	}
	if n, err := f.svc.ApplyNodeReplicaLoss(4); err != nil || n != 1 {
		t.Fatalf("ApplyNodeReplicaLoss(4) removed %d replicas (err %v), want 1", n, err)
	}

	if err := f.svc.ApplyLinkFactor(3, 0.5); err != nil {
		t.Fatal(err)
	}
	if f.svc.Epoch() <= base {
		t.Fatalf("epoch %d did not advance past %d", f.svc.Epoch(), base)
	}
}

// decideAllocBudget is the allocation count of one Snapshot+PlaceMap
// decision at 5,000 nodes, as measured at commit 0507bb7.
const decideAllocBudget = 29

// TestDecideAllocs holds a map placement decision — snapshot, Algorithm
// 1 scan, gate — against a 5,000-node service holding four Wordcount
// jobs of 100 pending maps (the decide5k workload's state) to
// decideAllocBudget. Allocation counts are immune to host load, so a
// rise means the decision path itself got more expensive; its wall-clock
// speed is judged by cmd/mrbench's decide5k workload.
func TestDecideAllocs(t *testing.T) {
	f := newFixtureSized(t, 1250) // 1,250 racks of 4: 5,000 nodes
	nodes := f.net.Size()
	rngJobs := f.rng.Fork("jobs")
	var jobs []*job.Job
	for i := 1; i <= 4; i++ {
		j, err := job.New(job.ID(i), job.Spec{
			Name:        fmt.Sprintf("decide-%d", i),
			Profile:     workload.ProfileFor(workload.Wordcount),
			InputBytes:  100 * 128e6,
			BlockSize:   128e6,
			NumReduces:  30,
			Replication: 3,
		}, f.store, rngJobs)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	d := f.decider(DefaultConfig())
	req := &Request{Jobs: jobs, Slowstart: 0.05}
	i, placed := 0, 0
	allocs := testing.AllocsPerRun(2000, func() {
		v := f.svc.Snapshot()
		req.AvailMap, req.AvailReduce = v.AvailMap, v.AvailReduce
		if m, _ := d.PlaceMap(req, topology.NodeID(i%nodes)); m != nil {
			placed++
		}
		i++
	})
	if placed == 0 {
		t.Fatal("no decision placed a map")
	}
	if allocs > decideAllocBudget {
		t.Fatalf("%.0f allocs per decision, budget %d", allocs, decideAllocBudget)
	}
}
