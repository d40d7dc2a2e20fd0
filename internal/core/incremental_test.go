package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
)

// rackShape is a cluster shape: racks × perRack nodes.
type rackShape struct{ racks, perRack int }

func (s rackShape) String() string { return fmt.Sprintf("%dx%d", s.racks, s.perRack) }

// rackShapes are the hop-mode shapes the rack-collapsed sums are checked
// on: one rack, several multi-node racks, and singleton racks only.
var rackShapes = []rackShape{{1, 12}, {3, 8}, {12, 1}}

// churnSetup builds a cluster of the given shape with a randomly placed
// job for the cache-equivalence tests.
func churnSetup(t *testing.T, mode Mode, shape rackShape, seed int64) (*sim.Engine, *topology.Cluster, *CostModel, *job.Job) {
	t.Helper()
	eng := sim.NewEngine()
	spec := topology.DefaultSpec()
	spec.Racks = shape.racks
	spec.NodesPerRack = shape.perRack
	cl, err := topology.NewCluster(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	store := hdfs.NewStore(cl, sim.NewRNG(seed))
	prof := job.Profile{
		Name: "churn", MapSelectivity: 1, MapRate: 1e6, ReduceRate: 1e6,
		PartitionSkew: 0.5, SelectivityJitter: 0.2, OutputCurveSpread: 0.3,
	}
	j, err := job.New(1, job.Spec{
		Name: "churn", Profile: prof, InputBytes: 40 * 64e6, BlockSize: 64e6,
		NumReduces: 7, Replication: 2,
	}, store, sim.NewRNG(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	cm, err := NewCostModel(cl, store, cl, mode)
	if err != nil {
		t.Fatal(err)
	}
	return eng, cl, cm, j
}

// churnMaps applies one round of random task-state churn: launches,
// progress advances, completions, failure-style reverts to pending, and
// speculation-style node moves.
func churnMaps(j *job.Job, n int, rng *sim.RNG, nodes int) {
	for i := 0; i < len(j.Maps); i++ {
		if rng.Float64() > 0.4 {
			continue
		}
		m := j.Maps[rng.Intn(len(j.Maps))]
		switch rng.Intn(5) {
		case 0: // launch or relocate
			m.Run(topology.NodeID(rng.Intn(nodes)), 0)
			m.Progress = rng.Float64()
		case 1: // progress advance
			if m.State == job.TaskRunning {
				m.Progress = math.Min(1, m.Progress+rng.Float64()*0.3)
			}
		case 2: // finish
			if m.State == job.TaskRunning {
				m.Complete(0)
			}
		case 3: // node failure: task reverts to pending
			m.Reset()
		case 4: // speculation win on another node
			if m.State == job.TaskRunning {
				m.Node = topology.NodeID(rng.Intn(nodes))
			}
		}
	}
}

// randomAvail draws a sorted non-empty subset of nodes.
func randomAvail(rng *sim.RNG, nodes int) []topology.NodeID {
	var out []topology.NodeID
	for k := 0; k < nodes; k++ {
		if rng.Float64() < 0.5 {
			out = append(out, topology.NodeID(k))
		}
	}
	if len(out) == 0 {
		out = append(out, topology.NodeID(rng.Intn(nodes)))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// requireCostersEqual asserts that a refreshed coster and a freshly built
// one are bit-identical in every observable: costs, averages, residency
// and totals.
func requireCostersEqual(t *testing.T, round int, got, want *ReduceCoster, nodes int, rng *sim.RNG) {
	t.Helper()
	if !equalNodes(got.nodes, want.nodes) {
		t.Fatalf("round %d: node sets differ: %v vs %v", round, got.nodes, want.nodes)
	}
	nf := got.j.NumReduces()
	for f := 0; f < nf; f++ {
		for i := 0; i < nodes; i++ {
			n := topology.NodeID(i)
			if a, b := got.Cost(n, f), want.Cost(n, f); a != b {
				t.Fatalf("round %d: Cost(%d,%d) = %v, fresh build says %v", round, n, f, a, b)
			}
			if a, b := got.OnNode(n, f), want.OnNode(n, f); a != b {
				t.Fatalf("round %d: OnNode(%d,%d) = %v, fresh build says %v", round, n, f, a, b)
			}
		}
		if a, b := got.TotalEstimated(f), want.TotalEstimated(f); a != b {
			t.Fatalf("round %d: TotalEstimated(%d) = %v, fresh build says %v", round, f, a, b)
		}
		avail := NewAvail(randomAvail(rng, nodes))
		if a, b := got.CostAvg(f, avail), want.CostAvg(f, avail); a != b {
			t.Fatalf("round %d: CostAvg(%d) = %v, fresh build says %v", round, f, a, b)
		}
	}
}

// requireNear asserts that a rack-collapsed average matches its per-node
// definition within relative 1e-12; +Inf must match +Inf exactly.
func requireNear(t *testing.T, what string, got, want float64) {
	t.Helper()
	if got == want {
		return
	}
	if math.IsInf(got, 0) || math.IsInf(want, 0) || math.Abs(got-want) > 1e-12*math.Abs(want) {
		t.Fatalf("%s = %v, per-node sum says %v", what, got, want)
	}
}

// TestRefreshMatchesRebuild drives random task churn through an
// incrementally refreshed ReduceCoster and checks it stays bit-identical
// to a coster built from scratch at every step, for each built-in
// estimator and rack shape, and that its rack-collapsed CostAvg matches
// the per-node average of Cost.
func TestRefreshMatchesRebuild(t *testing.T) {
	for _, shape := range rackShapes {
		for _, est := range []Estimator{ProgressScaled{}, CurrentSize{}, Oracle{}} {
			t.Run(shape.String()+"/"+est.Name(), func(t *testing.T) {
				_, cl, cm, j := churnSetup(t, ModeHops, shape, 21)
				rng := sim.NewRNG(33)
				rc := cm.NewReduceCoster(j, est)
				for round := 0; round < 60; round++ {
					churnMaps(j, 10, rng, cl.Size())
					rc.Refresh()
					requireCostersEqual(t, round, rc, cm.NewReduceCoster(j, est), cl.Size(), rng)
					avail := randomAvail(rng, cl.Size())
					for f := 0; f < j.NumReduces(); f++ {
						var sum float64
						for _, k := range avail {
							sum += rc.Cost(k, f)
						}
						requireNear(t, fmt.Sprintf("round %d: CostAvg(%d)", round, f),
							rc.CostAvg(f, NewAvail(avail)), sum/float64(len(avail)))
					}
				}
			})
		}
	}
}

// TestReduceCosterAvgTracksNetworkEpoch pins the invalidation rule in
// network-condition mode: CostAvg must follow rate changes caused by flow
// churn instead of serving stale distance sums.
func TestReduceCosterAvgTracksNetworkEpoch(t *testing.T) {
	eng, cl, cm, j := churnSetup(t, ModeNetworkCondition, rackShape{3, 8}, 9)
	rng := sim.NewRNG(10)
	churnMaps(j, 10, rng, cl.Size())
	rc := cm.NewReduceCoster(j, ProgressScaled{})
	avail := randomAvail(rng, cl.Size())
	naive := func(f int) float64 {
		var sum float64
		for _, k := range avail {
			sum += rc.Cost(k, f)
		}
		return sum / float64(len(avail))
	}
	const f = 0
	if got, want := rc.CostAvg(f, NewAvail(avail)), naive(f); math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("CostAvg = %v, want %v", got, want)
	}
	// Congest the network: path rates, hence distances, change.
	for i := 0; i < 30; i++ {
		src := topology.NodeID(rng.Intn(cl.Size()))
		dst := topology.NodeID(rng.Intn(cl.Size()))
		if src != dst {
			cl.Transfer(src, dst, 5e6, nil)
		}
	}
	for i := 0; i < 20; i++ {
		eng.Step()
	}
	if got, want := rc.CostAvg(f, NewAvail(avail)), naive(f); math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("after churn: CostAvg = %v, want %v (stale cache?)", got, want)
	}
}

// TestMapCosterMatchesNaive checks the cached Formula 1 path against the
// direct computation, bit for bit, across changing avail sets and replica
// loss (the only thing that stales a row in hop mode), down to blocks with
// no replica left, and its rack-collapsed CostAvg against the per-node
// average of MapCost, on every rack shape.
func TestMapCosterMatchesNaive(t *testing.T) {
	for _, shape := range rackShapes {
		t.Run(shape.String(), func(t *testing.T) { testMapCosterMatchesNaive(t, shape) })
	}
}

func testMapCosterMatchesNaive(t *testing.T, shape rackShape) {
	_, cl, cm, j := churnSetup(t, ModeHops, shape, 13)
	mc, ok := cm.MapEvaluator().(*MapCoster)
	if !ok {
		t.Fatal("hop model on a Cluster did not pick the MapCoster")
	}
	rng := sim.NewRNG(14)
	for round := 0; round < 25; round++ {
		if round%2 == 1 {
			m := j.Maps[rng.Intn(3)]
			if reps := cm.store.Replicas(m.Block); len(reps) > 0 {
				cm.store.RemoveReplica(m.Block, reps[rng.Intn(len(reps))])
			}
		}
		avail := randomAvail(rng, cl.Size())
		for _, m := range j.Maps {
			n := topology.NodeID(rng.Intn(cl.Size()))
			if got, want := mc.Cost(m, n), cm.MapCost(m, n); got != want {
				t.Fatalf("round %d: Cost(m%d,%d) = %v, naive %v", round, m.Index, n, got, want)
			}
			got := mc.CostAvg(m, NewAvail(avail))
			if want := cm.MapCostAvg(m, avail); got != want {
				t.Fatalf("round %d: CostAvg(m%d) = %v, naive %v", round, m.Index, got, want)
			}
			var sum float64
			for _, k := range avail {
				sum += cm.MapCost(m, k)
			}
			requireNear(t, fmt.Sprintf("round %d: CostAvg(m%d)", round, m.Index), got, sum/float64(len(avail)))
		}
	}
	lost := false
	for _, m := range j.Maps[:3] {
		lost = lost || len(cm.store.Replicas(m.Block)) == 0
	}
	if !lost {
		t.Fatal("no block lost its last replica")
	}
	if mc.Len() != len(j.Maps) {
		t.Fatalf("cached rows = %d, want %d", mc.Len(), len(j.Maps))
	}
	mc.Forget(j)
	if mc.Len() != 0 {
		t.Fatalf("Forget left %d rows", mc.Len())
	}
}

// TestSelectMapTaskWithMatchesDirect checks Algorithm 1 end to end: the
// cached evaluator must pick the same task with the same probability and
// costs as the uncached one. The candidates mix two jobs' block sizes
// (and a short tail block), so a large remote task can out-save a small
// local one.
func TestSelectMapTaskWithMatchesDirect(t *testing.T) {
	_, cl, cm, j := churnSetup(t, ModeHops, rackShape{3, 8}, 17)
	small, err := job.New(2, job.Spec{
		Name: "small", Profile: j.Spec.Profile, InputBytes: 20*16e6 + 5e6, BlockSize: 16e6,
		NumReduces: 3, Replication: 2,
	}, cm.store, sim.NewRNG(19))
	if err != nil {
		t.Fatal(err)
	}
	var tasks []*job.MapTask
	for k := 0; k < len(j.Maps) || k < len(small.Maps); k++ {
		if k < len(j.Maps) {
			tasks = append(tasks, j.Maps[k])
		}
		if k < len(small.Maps) {
			tasks = append(tasks, small.Maps[k])
		}
	}
	mc := cm.MapEvaluator()
	rng := sim.NewRNG(18)
	locals := 0
	for round := 0; round < 40; round++ {
		avail := NewAvail(randomAvail(rng, cl.Size()))
		node := topology.NodeID(rng.Intn(cl.Size()))
		a, okA := SelectMapTaskWith(directMapCost{cm}, nil, tasks, node, avail)
		b, okB := SelectMapTaskWith(mc, nil, tasks, node, avail)
		if okA != okB {
			t.Fatalf("round %d: ok %v vs %v", round, okA, okB)
		}
		if !okA {
			continue
		}
		if a.Best != b.Best {
			t.Fatalf("round %d: best differs: %+v vs %+v", round, a.Best, b.Best)
		}
		if a.Local != b.Local {
			t.Fatalf("round %d: local differs: %+v vs %+v", round, a.Local, b.Local)
		}
		// Brute force: Best has the largest saving, Local the largest among
		// zero-cost candidates, the earlier task winning ties.
		var best, local *job.MapTask
		var bestS, localS float64
		for _, m := range tasks {
			c := cm.MapCost(m, node)
			if math.IsInf(c, 1) {
				continue
			}
			s := cm.MapCostAvg(m, avail.Nodes) - c
			if best == nil || s > bestS {
				best, bestS = m, s
			}
			if c == 0 && (local == nil || s > localS) {
				local, localS = m, s
			}
		}
		if a.Best.MapTask != best || a.Local.MapTask != local {
			t.Fatalf("round %d: selected best %v local %v, brute force says %v and %v",
				round, a.Best.MapTask, a.Local.MapTask, best, local)
		}
		if a.HasLocal() && a.Local != a.Best {
			locals++
		}
	}
	if locals == 0 {
		t.Fatal("no round had a remote best beside a local candidate")
	}
}
