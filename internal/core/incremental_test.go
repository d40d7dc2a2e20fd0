package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"mapsched/internal/cluster"
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
	spec := topology.DefaultSpec()
	spec.Racks = shape.racks
	spec.NodesPerRack = shape.perRack
	return churnSetupSpec(t, mode, spec, seed)
}

// churnSetupSpec is churnSetup on an arbitrary topology spec.
func churnSetupSpec(t *testing.T, mode Mode, spec topology.Spec, seed int64) (*sim.Engine, *topology.Cluster, *CostModel, *job.Job) {
	t.Helper()
	eng := sim.NewEngine()
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
	cm, err := NewCostModel(cl, store, mode)
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

// snapshots builds Avail values for hand-picked node lists the way the
// cluster state publishes them: a new version whenever the list changes.
type snapshots struct {
	last    []topology.NodeID
	version uint64
}

func (s *snapshots) of(nodes []topology.NodeID) Avail {
	if s.version == 0 || !slices.Equal(nodes, s.last) {
		s.version++
		s.last = slices.Clone(nodes)
	}
	var set topology.NodeSet
	for _, k := range nodes {
		set = set.With(k, true)
	}
	return Avail{Nodes: set, Version: s.version}
}

// members lists a set's nodes in ascending order.
func members(set topology.NodeSet) []topology.NodeID {
	var out []topology.NodeID
	set.Each(func(k topology.NodeID) { out = append(out, k) })
	return out
}

// slotChurn drives a cluster.State over the test cluster with random slot
// acquires, releases and offline flips, so the cost caches see snapshots
// from their real producer and its version contract.
type slotChurn struct {
	st  *cluster.State
	rng *sim.RNG
}

func newSlotChurn(t *testing.T, cl *topology.Cluster, rng *sim.RNG) *slotChurn {
	t.Helper()
	st, err := cluster.New(cl.Size(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return &slotChurn{st: st, rng: rng}
}

// next applies up to three random deltas and returns the kind-k snapshot,
// which is the previous one when no delta changed membership.
func (c *slotChurn) next(k job.TaskKind) Avail {
	for i := c.rng.Intn(4); i > 0; i-- {
		n := c.st.Node(topology.NodeID(c.rng.Intn(c.st.Size())))
		switch c.rng.Intn(3) {
		case 0:
			_ = n.AcquireSlot(k) // fails only on a full node, leaving it unchanged
		case 1:
			if n.UsedSlots(k) > 0 {
				n.ReleaseSlot(k)
			}
		case 2:
			n.SetOffline(!n.Offline())
		}
	}
	nodes, version := c.st.Avail(k)
	return Avail{Nodes: nodes, Version: version}
}

// requireCostersEqual asserts that a refreshed coster and a freshly built
// one are bit-identical in every observable: costs, averages, residency
// and totals.
func requireCostersEqual(t *testing.T, round int, got, want *ReduceCoster, nodes int, ch *slotChurn) {
	t.Helper()
	if !slices.Equal(got.nodes, want.nodes) {
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
		avail := ch.next(job.ReduceKind)
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
// the per-node average of Cost. The avail snapshots come from a churned
// cluster.State.
func TestRefreshMatchesRebuild(t *testing.T) {
	for _, shape := range rackShapes {
		for _, est := range []Estimator{ProgressScaled{}, CurrentSize{}, Oracle{}} {
			t.Run(shape.String()+"/"+est.Name(), func(t *testing.T) {
				_, cl, cm, j := churnSetup(t, ModeHops, shape, 21)
				rng := sim.NewRNG(33)
				ch := newSlotChurn(t, cl, rng)
				rc := cm.NewReduceCoster(j, est)
				for round := 0; round < 60; round++ {
					churnMaps(j, 10, rng, cl.Size())
					rc.Refresh()
					requireCostersEqual(t, round, rc, cm.NewReduceCoster(j, est), cl.Size(), ch)
					avail := ch.next(job.ReduceKind)
					for f := 0; f < j.NumReduces(); f++ {
						var sum float64
						for _, k := range members(avail.Nodes) {
							sum += rc.Cost(k, f)
						}
						requireNear(t, fmt.Sprintf("round %d: CostAvg(%d)", round, f),
							rc.CostAvg(f, avail), sum/float64(avail.Nodes.Len()))
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
	avail := (&snapshots{}).of(randomAvail(rng, cl.Size()))
	naive := func(f int) float64 {
		var sum float64
		for _, k := range members(avail.Nodes) {
			sum += rc.Cost(k, f)
		}
		return sum / float64(avail.Nodes.Len())
	}
	const f = 0
	if got, want := rc.CostAvg(f, avail), naive(f); math.Abs(got-want) > 1e-9*math.Abs(want) {
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
	if got, want := rc.CostAvg(f, avail), naive(f); math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("after churn: CostAvg = %v, want %v (stale cache?)", got, want)
	}
}

// naiveMapCost is the test oracle for the model's Formula 1 path. It
// never reads the block rows: MapCosts composes MapCost and MapCostAvg,
// MapCost finds the nearest replica on every call, and in hop mode on a Cluster MapCostAvg rebuilds C_avg from the
// replica list as Σ_r n'_r · minD_r in rack order, the rack-collapsed
// reordering the model adds in, so the two agree bit for bit. Elsewhere
// MapCostAvg sums MapCost per avail node.
type naiveMapCost struct{ cm *CostModel }

func (o naiveMapCost) MapCosts(m *job.MapTask, i topology.NodeID, a Avail) (cost, avg float64) {
	if cost = o.MapCost(m, i); math.IsInf(cost, 1) {
		return cost, 0
	}
	return cost, o.MapCostAvg(m, a)
}

func (o naiveMapCost) MapCost(m *job.MapTask, i topology.NodeID) float64 {
	best := math.Inf(1)
	for _, l := range o.cm.store.Replicas(m.Block) {
		best = min(best, o.cm.Distance(i, l))
	}
	if math.IsInf(best, 1) {
		return math.Inf(1)
	}
	return m.Size * best
}

func (o naiveMapCost) MapCostAvg(m *job.MapTask, a Avail) float64 {
	nodes := members(a.Nodes)
	if len(nodes) == 0 {
		return 0
	}
	var sum float64
	if cl := o.cm.racks; cl != nil {
		counts := make([]int, cl.Racks())
		for _, k := range nodes {
			counts[cl.Rack(k)]++
		}
		replicas := o.cm.store.Replicas(m.Block)
		for r, n := range counts {
			minD := math.Inf(1)
			for _, l := range replicas {
				minD = min(minD, cl.RackDistance(r, cl.Rack(l)))
				if cl.Rack(l) == r && slices.Contains(nodes, l) {
					n-- // a replica node reads locally at distance 0
				}
			}
			if n > 0 {
				sum += float64(float64(n) * minD)
			}
		}
		return m.Size * sum / float64(len(nodes))
	}
	for _, k := range nodes {
		sum += o.MapCost(m, k)
	}
	return sum / float64(len(nodes))
}

// TestMapCosterMatchesNaive checks the model's cached Formula 1 rows
// against the naive oracle, bit for bit, across changing avail sets and
// replica loss (the only thing that stales a row in hop mode), down to
// blocks with no replica left, and its rack-collapsed C_avg against the
// per-node average of MapCost, on every rack shape. The avail snapshots
// come from a churned cluster.State.
func TestMapCosterMatchesNaive(t *testing.T) {
	for _, shape := range rackShapes {
		t.Run(shape.String(), func(t *testing.T) { testMapCosterMatchesNaive(t, shape) })
	}
}

func testMapCosterMatchesNaive(t *testing.T, shape rackShape) {
	_, cl, cm, j := churnSetup(t, ModeHops, shape, 13)
	naive := naiveMapCost{cm}
	rng := sim.NewRNG(14)
	ch := newSlotChurn(t, cl, rng)
	for round := 0; round < 25; round++ {
		if round%2 == 1 {
			m := j.Maps[rng.Intn(3)]
			if reps := cm.store.Replicas(m.Block); len(reps) > 0 {
				i := rng.Intn(len(reps))
				if err := cm.store.SetReplicas(m.Block, slices.Delete(slices.Clone(reps), i, i+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
		avail := ch.next(job.MapKind)
		for _, m := range j.Maps {
			n := topology.NodeID(rng.Intn(cl.Size()))
			if got, want := cm.MapCost(m, n), naive.MapCost(m, n); got != want {
				t.Fatalf("round %d: MapCost(m%d,%d) = %v, naive %v", round, m.Index, n, got, want)
			}
			got := cm.MapCostAvg(m, avail)
			if want := naive.MapCostAvg(m, avail); got != want {
				t.Fatalf("round %d: MapCostAvg(m%d) = %v, naive %v", round, m.Index, got, want)
			}
			var sum float64
			for _, k := range members(avail.Nodes) {
				sum += naive.MapCost(m, k)
			}
			requireNear(t, fmt.Sprintf("round %d: MapCostAvg(m%d)", round, m.Index), got, sum/float64(avail.Nodes.Len()))
		}
	}
	lost := false
	for _, m := range j.Maps[:3] {
		lost = lost || len(cm.store.Replicas(m.Block)) == 0
	}
	if !lost {
		t.Fatal("no block lost its last replica")
	}
	if cm.MapRows() != len(j.Maps) {
		t.Fatalf("cached rows = %d, want %d", cm.MapRows(), len(j.Maps))
	}
	cm.ForgetMaps(j)
	if cm.MapRows() != 0 {
		t.Fatalf("ForgetMaps left %d rows", cm.MapRows())
	}
}

// TestSelectMapTaskWithMatchesDirect checks Algorithm 1 end to end under
// every built-in model: the model's cached rows must pick the same task
// with the same probability and costs as the naive oracle, and each
// returned candidate's probability must be the model's at its own costs.
// The candidates mix two jobs' block sizes (and a short tail block), so a
// large remote task can out-save a small local one.
func TestSelectMapTaskWithMatchesDirect(t *testing.T) {
	_, cl, cm, j := churnSetup(t, ModeHops, rackShape{3, 8}, 17)
	_, tasks := mixedTasks(t, cm, j, 19)
	naive := naiveMapCost{cm}
	rng := sim.NewRNG(18)
	snaps := &snapshots{}
	locals := 0
	for round := 0; round < 40; round++ {
		avail := snaps.of(randomAvail(rng, cl.Size()))
		node := topology.NodeID(rng.Intn(cl.Size()))
		for _, model := range Models() {
			a, okA := SelectMapTaskWith(naive, model, tasks, node, avail)
			b, okB := SelectMapTaskWith(cm, model, tasks, node, avail)
			if okA != okB {
				t.Fatalf("round %d, %s: ok %v vs %v", round, model.Name(), okA, okB)
			}
			if !okA {
				continue
			}
			if a.Best != b.Best {
				t.Fatalf("round %d, %s: best differs: %+v vs %+v", round, model.Name(), a.Best, b.Best)
			}
			if a.Local != b.Local {
				t.Fatalf("round %d, %s: local differs: %+v vs %+v", round, model.Name(), a.Local, b.Local)
			}
			// Brute force: Best has the largest saving, Local the largest
			// among zero-cost candidates, the earlier task winning ties;
			// each carries the model's probability at its own costs.
			var best, local *job.MapTask
			var bestS, localS float64
			for _, m := range tasks {
				c := naive.MapCost(m, node)
				if math.IsInf(c, 1) {
					continue
				}
				s := naive.MapCostAvg(m, avail) - c
				if best == nil || s > bestS {
					best, bestS = m, s
				}
				if c == 0 && (local == nil || s > localS) {
					local, localS = m, s
				}
			}
			if a.Best.MapTask != best || a.Local.MapTask != local {
				t.Fatalf("round %d, %s: selected best %v local %v, brute force says %v and %v",
					round, model.Name(), a.Best.MapTask, a.Local.MapTask, best, local)
			}
			if p := model.Prob(a.Best.AvgCost, a.Best.Cost); a.Best.Prob != p {
				t.Fatalf("round %d, %s: Best.Prob = %v, model says %v", round, model.Name(), a.Best.Prob, p)
			}
			if a.HasLocal() {
				if p := model.Prob(a.Local.AvgCost, a.Local.Cost); a.Local.Prob != p {
					t.Fatalf("round %d, %s: Local.Prob = %v, model says %v", round, model.Name(), a.Local.Prob, p)
				}
				if a.Local != a.Best {
					locals++
				}
			}
		}
	}
	if locals == 0 {
		t.Fatal("no round had a remote best beside a local candidate")
	}
}

// mixedTasks adds a second job of small blocks (and a short tail block)
// to j's store and returns it with both jobs' maps interleaved, so a
// large remote task can out-save a small local one.
func mixedTasks(t *testing.T, cm *CostModel, j *job.Job, seed int64) (*job.Job, []*job.MapTask) {
	t.Helper()
	small, err := job.New(2, job.Spec{
		Name: "small", Profile: j.Spec.Profile, InputBytes: 20*16e6 + 5e6, BlockSize: 16e6,
		NumReduces: 3, Replication: 2,
	}, cm.store, sim.NewRNG(seed))
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
	return small, tasks
}

// netShapes are the network-condition shapes the factored sums are
// checked on: one rack, multi-node racks (the cross-rack InRate branch
// beside same-rack paths) and singleton racks (every path cross-rack).
var netShapes = []rackShape{{1, 12}, {4, 3}, {12, 1}}

// TestNetworkCostsMatchPerPairSums is the oracle table for the
// network-condition cost paths: MapCostAvg must equal the per-node sum of
// MapCost, ReduceCoster.Cost the per-pair sum of Distance·S, and
// ReduceCoster.CostAvg the per-pair sums of Distance weighted by S, all
// compared with ==. The churn covers flow starts, completions and
// persistent cross traffic, a severed host link (+Inf distances), a
// halved host link, a block with no replica left, replica nodes in
// the avail set, Refresh adding and removing map nodes, and offers that
// alternate between nodes, so Cost's distance-row memo must invalidate on
// node, epoch and node-set changes.
func TestNetworkCostsMatchPerPairSums(t *testing.T) {
	for _, shape := range netShapes {
		t.Run(shape.String(), func(t *testing.T) {
			spec := topology.DefaultSpec()
			spec.Racks, spec.NodesPerRack = shape.racks, shape.perRack
			spec.TorUplinkBps = 250e6 // lets ToR/core links bind
			eng, cl, cm, j := churnSetupSpec(t, ModeNetworkCondition, spec, 41)
			testNetworkCostsMatchPerPairSums(t, eng, cl, cm, j)
		})
	}
}

func testNetworkCostsMatchPerPairSums(t *testing.T, eng *sim.Engine, cl *topology.Cluster, cm *CostModel, j *job.Job) {
	rng := sim.NewRNG(43)
	n := cl.Size()
	rc := cm.NewReduceCoster(j, ProgressScaled{})
	// A block with no replica left: every node's map cost is +Inf.
	if err := cm.store.SetReplicas(j.Maps[0].Block, nil); err != nil {
		t.Fatal(err)
	}

	checkCost := func(round int, i topology.NodeID) {
		t.Helper()
		for f := 0; f < j.NumReduces(); f++ {
			var want float64
			for pi, p := range rc.nodes {
				if s := rc.s[pi][f]; s > 0 {
					want += cm.Distance(p, i) * s
				}
			}
			if got := rc.Cost(i, f); got != want {
				t.Fatalf("round %d: Cost(%d, %d) = %v, per-pair sum %v", round, i, f, got, want)
			}
		}
	}
	checkAvgs := func(round int, a Avail) {
		t.Helper()
		avail := members(a.Nodes)
		for _, m := range j.Maps {
			var sum float64
			for _, k := range avail {
				sum += cm.MapCost(m, k)
			}
			if got, want := cm.MapCostAvg(m, a), sum/float64(len(avail)); got != want {
				t.Fatalf("round %d: MapCostAvg(m%d) = %v, per-node sum %v", round, m.Index, got, want)
			}
		}
		for f := 0; f < j.NumReduces(); f++ {
			var sum float64
			for pi, p := range rc.nodes {
				if s := rc.s[pi][f]; s > 0 {
					var h float64
					for _, k := range avail {
						h += cm.Distance(p, k)
					}
					sum += s * h
				}
			}
			want := sum / float64(len(avail))
			if got := rc.CostAvg(f, a); got != want {
				t.Fatalf("round %d: CostAvg(%d) = %v, per-pair sum %v", round, f, got, want)
			}
		}
	}

	var live []*topology.Flow
	severed, infSeen := false, false
	snaps := &snapshots{}
	for round := 0; round < 40; round++ {
		avail := randomAvail(rng, n)
		// Put a replica node of a random block into the avail set.
		if reps := cm.store.Replicas(j.Maps[1+rng.Intn(len(j.Maps)-1)].Block); len(reps) > 0 {
			avail = insertNode(avail, reps[0])
		}
		snap := snaps.of(avail)
		a := topology.NodeID(rng.Intn(n))
		b := topology.NodeID(rng.Intn(n))
		checkCost(round, a)
		checkAvgs(round, snap)

		// Map-node churn alone: same epoch, new node set.
		churnMaps(j, 10, rng, n)
		rc.Refresh()
		checkCost(round, a)
		checkCost(round, b)
		checkCost(round, a)

		// Flow churn: new epochs, new rates.
		for k := 0; k < 4; k++ {
			src, dst := topology.NodeID(rng.Intn(n)), topology.NodeID(rng.Intn(n))
			if src == dst {
				continue
			}
			if rng.Intn(3) == 0 {
				live = append(live, cl.InjectCrossTraffic(src, dst))
			} else {
				cl.Transfer(src, dst, rng.Uniform(1e6, 4e7), nil)
			}
		}
		if round%5 == 4 && len(live) > 0 {
			cl.Net().Cancel(live[0])
			live = live[1:]
		}
		switch round {
		case 10:
			cl.SetHostLinkFactor(topology.NodeID(rng.Intn(n)), 0)
			severed = true
		case 25:
			// A capacity change that moves rates without flow churn.
			cl.SetHostLinkFactor(topology.NodeID(rng.Intn(n)), 0.5)
		}
		checkCost(round, a)
		checkAvgs(round, snap)
		for k := 0; k < 3; k++ {
			eng.Step()
		}
		checkCost(round, b)
		checkAvgs(round, snap)
		for _, k := range avail {
			for _, p := range rc.nodes {
				infSeen = infSeen || math.IsInf(cm.Distance(p, k), 1)
			}
		}
	}
	if !severed || !infSeen {
		t.Fatal("the churn never produced a +Inf distance")
	}
}

// insertNode adds id to the ascending list avail if it is missing.
func insertNode(avail []topology.NodeID, id topology.NodeID) []topology.NodeID {
	if k, found := slices.BinarySearch(avail, id); !found {
		avail = slices.Insert(avail, k, id)
	}
	return avail
}
