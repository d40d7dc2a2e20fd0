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
	svc, err := NewService(Deps{Net: net, Store: store, Rate: net, Slots: slots, Mode: core.ModeHops})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{net: net, store: store, slots: slots, svc: svc, rng: rng}
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

func reqFor(jobs ...*job.Job) *Request {
	return &Request{
		Jobs:        jobs,
		AvailMap:    core.NewAvail(allNodes(8)),
		AvailReduce: core.NewAvail(allNodes(8)),
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
// missed).
func TestSweepEvictsUnderBalancedChurn(t *testing.T) {
	f := newFixture(t)
	d := f.decider(DefaultConfig())

	j1 := finishMaps(f.addJob(t, 1, []topology.NodeID{0}, 2))
	j2 := finishMaps(f.addJob(t, 2, []topology.NodeID{1}, 2))
	d.PlaceReduce(reqFor(j1, j2), 0)
	if len(d.costerCache) != 2 {
		t.Fatalf("cache holds %d jobs after first offer, want 2", len(d.costerCache))
	}

	// Balanced churn: j1 leaves, j3 arrives, live size stays 2.
	j3 := finishMaps(f.addJob(t, 3, []topology.NodeID{2}, 2))
	d.PlaceReduce(reqFor(j2, j3), 1)
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
	d.PlaceReduce(reqFor(j3, j4), 2)
	if _, dead := d.costerCache[j2.ID]; dead {
		t.Fatal("departed job survived the second balanced-churn sweep")
	}
}

// TestSweepForgetsMapRowsOfEveryDepartedJob pins the map-row half of the
// sweep: a job that leaves the live set before any reduce decision (a
// failed job, say) must not keep its map-cost rows.
func TestSweepForgetsMapRowsOfEveryDepartedJob(t *testing.T) {
	f := newFixture(t)
	d := f.decider(DefaultConfig())
	mc, ok := d.mapCost.(*core.MapCoster)
	if !ok {
		t.Fatalf("hop-mode map evaluator is %T, want *core.MapCoster", d.mapCost)
	}
	j1 := f.addJob(t, 1, []topology.NodeID{0, 1, 2}, 1)
	j2 := f.addJob(t, 2, []topology.NodeID{3, 4}, 1)
	// Node 7 holds no replica, so the scan costs every pending map.
	d.PlaceMap(reqFor(j1, j2), 7)
	if got := mc.Len(); got != 5 {
		t.Fatalf("%d map-cost rows after costing both jobs, want 5", got)
	}
	d.PlaceMap(reqFor(j2), 7)
	if got := mc.Len(); got != 2 {
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

	m, out := d.PlaceMap(reqFor(j), 3)
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
	m, out = ds.PlaceMap(reqFor(j2), 0)
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

	ev := d.EvaluateMap(reqFor(j), 0)
	if !ev.HasBest || ev.InstantLocal {
		t.Fatalf("evaluation = %+v, want a non-local best", ev)
	}
	m, out := d.PlaceMap(reqFor(j), 0)
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
	if len(v0.AvailMap.Nodes) != 8 || len(v0.AvailReduce.Nodes) != 8 {
		t.Fatalf("fresh service avail = %d/%d nodes, want 8/8", len(v0.AvailMap.Nodes), len(v0.AvailReduce.Nodes))
	}

	if err := f.svc.ApplySlotAcquire(job.ReduceKind, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.svc.ApplySlotAcquire(job.ReduceKind, 2); err != nil {
		t.Fatal(err)
	}
	v := f.svc.Snapshot()
	if len(v.AvailReduce.Nodes) != 7 {
		t.Fatalf("after filling node 2's reduce slots: %d avail, want 7", len(v.AvailReduce.Nodes))
	}
	f.svc.ApplySlotRelease(job.ReduceKind, 2)
	if n := len(f.svc.Snapshot().AvailReduce.Nodes); n != 8 {
		t.Fatalf("after release: %d avail, want 8", n)
	}

	f.svc.ApplyNodeOffline(5, true)
	f.svc.ApplyNodeBlacklist(6, true)
	v = f.svc.Snapshot()
	if len(v.AvailMap.Nodes) != 6 {
		t.Fatalf("after offline+blacklist: %d map-avail, want 6", len(v.AvailMap.Nodes))
	}
	f.svc.ApplyNodeOffline(5, false)
	f.svc.ApplyNodeBlacklist(6, false)

	id, err := f.store.AddBlock(64e6, 1, placeAt{nodes: []topology.NodeID{1}})
	if err != nil {
		t.Fatal(err)
	}
	if added, err := f.svc.ApplyReplicaAdd(id, 4); err != nil || !added {
		t.Fatalf("ApplyReplicaAdd of a new replica: added=%v err=%v", added, err)
	}
	if added, err := f.svc.ApplyReplicaAdd(id, 4); err != nil || added {
		t.Fatalf("duplicate ApplyReplicaAdd: added=%v err=%v", added, err)
	}
	if removed, err := f.svc.ApplyReplicaLoss(id, 1); err != nil || !removed {
		t.Fatalf("ApplyReplicaLoss of an existing replica: removed=%v err=%v", removed, err)
	}
	if got := f.store.Replicas(id); len(got) != 1 || got[0] != 4 {
		t.Fatalf("replicas after add+loss = %v, want [4]", got)
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
