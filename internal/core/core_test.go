package core

import (
	"math"
	"testing"
	"testing/quick"

	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
)

// fig2H is the distance matrix of the paper's Fig. 2 worked example.
var fig2H = [][]float64{
	{0, 10, 2, 6},
	{10, 0, 10, 4},
	{2, 10, 0, 6},
	{6, 4, 6, 0},
}

// distMatrix is a network given directly by its distance matrix, all nodes
// in rack 0. It is not a Cluster, so the cost model evaluates it per node.
type distMatrix [][]float64

func (h distMatrix) Size() int                             { return len(h) }
func (h distMatrix) Distance(a, b topology.NodeID) float64 { return h[a][b] }
func (h distMatrix) Rack(topology.NodeID) int              { return 0 }

type fixedPolicy struct{ nodes []topology.NodeID }

func (p fixedPolicy) Name() string { return "fixed" }
func (p fixedPolicy) Place(topology.Network, *sim.RNG, int) []topology.NodeID {
	return p.nodes
}

// fig2Setup builds the Fig. 2 scenario: 4 nodes, M1's block on D1 (node 0),
// M2's block on D2 (node 1), both 128 MB, 2 reduce partitions with
// I = [[10,5],[20,10]] MB.
func fig2Setup(t *testing.T) (*CostModel, *job.Job) {
	t.Helper()
	net := distMatrix(fig2H)
	store := hdfs.NewStore(net, sim.NewRNG(1))
	prof := job.Profile{
		Name: "fig2", MapSelectivity: 1, MapRate: 1e6, ReduceRate: 1e6,
	}
	// Two blocks at fixed locations: rebuild the job by hand so the
	// intermediate matrix matches the paper exactly.
	b1, err := store.AddBlock(128, 1, fixedPolicy{nodes: []topology.NodeID{0}})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := store.AddBlock(128, 1, fixedPolicy{nodes: []topology.NodeID{1}})
	if err != nil {
		t.Fatal(err)
	}
	j := job.Assemble(1, job.Spec{Name: "fig2", Profile: prof}, []*job.MapTask{
		{Index: 0, Block: b1, Size: 128, Out: []float64{10, 5}, OutputCurve: 1, Node: -1},
		{Index: 1, Block: b2, Size: 128, Out: []float64{20, 10}, OutputCurve: 1, Node: -1},
	}, []*job.ReduceTask{
		{Index: 0, Node: -1},
		{Index: 1, Node: -1},
	})
	cm, err := NewCostModel(net, store, ModeHops)
	if err != nil {
		t.Fatal(err)
	}
	return cm, j
}

func TestFig2MapCosts(t *testing.T) {
	cm, j := fig2Setup(t)
	// "The transmission cost for M1 [on D3] is 128 × 2 = 256 and the cost
	// for M2 [on D2] is 128 × 0 = 0."
	if got := cm.MapCost(j.Maps[0], 2); got != 256 {
		t.Fatalf("C_m(D3, M1) = %v, want 256", got)
	}
	if got := cm.MapCost(j.Maps[1], 1); got != 0 {
		t.Fatalf("C_m(D2, M2) = %v, want 0", got)
	}
	// All placements of M1 (block on D1): D1=0, D2=128*10, D3=128*2, D4=128*6.
	want := []float64{0, 1280, 256, 768}
	for i, w := range want {
		if got := cm.MapCost(j.Maps[0], topology.NodeID(i)); got != w {
			t.Fatalf("C_m(D%d, M1) = %v, want %v", i+1, got, w)
		}
	}
}

func TestFig2ReduceCosts(t *testing.T) {
	cm, j := fig2Setup(t)
	// Fix the map placement of the example: M1 on D3 (node 2), M2 on D2
	// (node 1), both finished.
	j.Maps[0].State = job.TaskDone
	j.Maps[0].Node = 2
	j.Maps[1].State = job.TaskDone
	j.Maps[1].Node = 1
	rc := cm.NewReduceCoster(j, Oracle{})

	// Formula 2 by hand with the paper's H and I (the figure's own
	// mapper→reducer distance matrix contains a typo — it lists
	// M2→R1 = 4 although h(D2, D1) = 10 in H — so we validate against the
	// formula, not the figure):
	// C_r(D1, R1) = h(D3,D1)·I11 + h(D2,D1)·I21 = 2·10 + 10·20 = 220.
	if got := rc.Cost(0, 0); got != 220 {
		t.Fatalf("C_r(D1, R1) = %v, want 220", got)
	}
	// C_r(D3, R2) = h(D3,D3)·I12 + h(D2,D3)·I22 = 0·5 + 10·10 = 100.
	if got := rc.Cost(2, 1); got != 100 {
		t.Fatalf("C_r(D3, R2) = %v, want 100", got)
	}
	// A placement on the map's own node only pays the other map's path:
	// C_r(D2, R1) = h(D3,D2)·10 + 0·20 = 100.
	if got := rc.Cost(1, 0); got != 100 {
		t.Fatalf("C_r(D2, R1) = %v, want 100", got)
	}
}

func TestReduceCosterIgnoresPendingMaps(t *testing.T) {
	cm, j := fig2Setup(t)
	j.Maps[0].State = job.TaskDone
	j.Maps[0].Node = 2
	// Map 1 still pending: contributes nothing to Formula 2's X matrix.
	rc := cm.NewReduceCoster(j, Oracle{})
	if got := rc.Cost(0, 0); got != 2*10 {
		t.Fatalf("cost with one launched map = %v, want 20", got)
	}
	if got := rc.TotalEstimated(0); got != 10 {
		t.Fatalf("TotalEstimated = %v, want 10", got)
	}
}

func TestPaperEstimatorExample(t *testing.T) {
	// Section II-B-2's example: at time t1, M2 (final 10 MB for R1) is 10%
	// done, M1 (final ~5.56 MB) has produced 5 MB at 90% done. The
	// progress-scaled estimator must rank M2's node as the heavier source,
	// while the current-size view ranks M1 higher.
	cm, j := fig2Setup(t)
	m1, m2 := j.Maps[0], j.Maps[1]
	m1.Out = []float64{5.0 / 0.9, 0} // ≈5.56 MB final, 5 MB at 90%
	m2.Out = []float64{10, 0}
	m1.State, m2.State = job.TaskRunning, job.TaskRunning
	m1.Node, m2.Node = 0, 1
	m1.OutputCurve, m2.OutputCurve = 1, 1
	m1.Progress, m2.Progress = 0.9, 0.1

	ps := ProgressScaled{}
	cs := CurrentSize{}
	if est := estimate(ps, m2, 0); math.Abs(est-10) > 1e-9 {
		t.Fatalf("progress-scaled Î for M2 = %v, want 10", est)
	}
	if est := estimate(ps, m1, 0); math.Abs(est-5.0/0.9) > 1e-9 {
		t.Fatalf("progress-scaled Î for M1 = %v, want %v", est, 5.0/0.9)
	}
	if estimate(cs, m1, 0) <= estimate(cs, m2, 0) {
		t.Fatal("current-size should rank M1 above M2 (the paper's failure case)")
	}
	if estimate(ps, m1, 0) >= estimate(ps, m2, 0) {
		t.Fatal("progress-scaled should rank M2 above M1")
	}
	_ = cm
}

// estimate returns Î_jf = m.Out[f] · Scale(m), the estimate ReduceCoster
// aggregates.
func estimate(est Estimator, m *job.MapTask, f int) float64 {
	return m.Out[f] * est.Scale(m)
}

func TestEstimatorZeroProgress(t *testing.T) {
	_, j := fig2Setup(t)
	m := j.Maps[0]
	m.State = job.TaskRunning
	m.Progress = 0
	for _, est := range []Estimator{ProgressScaled{}, CurrentSize{}} {
		if v := estimate(est, m, 0); v != 0 {
			t.Fatalf("%s at zero progress = %v, want 0", est.Name(), v)
		}
	}
	if v := estimate(Oracle{}, m, 0); v != m.Out[0] {
		t.Fatalf("oracle = %v, want ground truth %v", v, m.Out[0])
	}
}

func TestEstimatorExactOnDoneMaps(t *testing.T) {
	_, j := fig2Setup(t)
	m := j.Maps[1]
	m.State = job.TaskDone
	m.Progress = 0.3 // stale progress must not matter once done
	for _, est := range []Estimator{ProgressScaled{}, CurrentSize{}, Oracle{}} {
		if v := estimate(est, m, 1); v != m.Out[1] {
			t.Fatalf("%s on done map = %v, want %v", est.Name(), v, m.Out[1])
		}
	}
}

func TestEstimatorConvergesWithCurvedOutput(t *testing.T) {
	_, j := fig2Setup(t)
	m := j.Maps[0]
	m.State = job.TaskRunning
	m.OutputCurve = 1.3 // output lags input
	prevErr := math.Inf(1)
	ps := ProgressScaled{}
	for _, p := range []float64{0.2, 0.5, 0.8, 0.99} {
		m.Progress = p
		err := math.Abs(estimate(ps, m, 0) - m.Out[0])
		if err > prevErr+1e-12 {
			t.Fatalf("estimator error grew from %v to %v at progress %v", prevErr, err, p)
		}
		prevErr = err
	}
}

func TestEstimatorIdentityWhenCurveIsOne(t *testing.T) {
	// With γ = 1, A_jf · B_j / d_read == I_jf at any progress — the
	// paper's estimator is exact for proportional output — while the
	// current size A_jf is the fraction p of I_jf.
	_, j := fig2Setup(t)
	m := j.Maps[0]
	m.State = job.TaskRunning
	m.OutputCurve = 1
	for _, p := range []float64{0.1, 0.25, 0.5, 0.9} {
		m.Progress = p
		for f := range m.Out {
			if est := estimate(ProgressScaled{}, m, f); math.Abs(est-m.Out[f]) > 1e-6*m.Out[f] {
				t.Fatalf("progress-scaled at p=%v: %v, want %v", p, est, m.Out[f])
			}
			if cur := estimate(CurrentSize{}, m, f); math.Abs(cur-p*m.Out[f]) > 1e-6*m.Out[f] {
				t.Fatalf("current-size at p=%v: %v, want %v", p, cur, p*m.Out[f])
			}
		}
	}
}

func TestAssignProbFormula(t *testing.T) {
	// P = 1 - e^{-avg/cost}.
	cases := []struct {
		avg, cost, want float64
	}{
		{100, 100, 1 - math.Exp(-1)},
		{200, 100, 1 - math.Exp(-2)},
		{50, 100, 1 - math.Exp(-0.5)},
		{0, 100, 0}, // everything else is better
		{100, 0, 1}, // local data
		{0, 0, 1},   // all free placements equal
		{100, math.Inf(1), 0},
	}
	for _, c := range cases {
		if got := AssignProb(c.avg, c.cost); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("AssignProb(%v, %v) = %v, want %v", c.avg, c.cost, got, c.want)
		}
	}
}

func TestAssignProbProperties(t *testing.T) {
	// Property: P ∈ [0,1]; monotone increasing in avg, decreasing in cost.
	f := func(a, c uint32) bool {
		avg := float64(a%10000) + 0.5
		cost := float64(c%10000) + 0.5
		p := AssignProb(avg, cost)
		if p < 0 || p > 1 {
			return false
		}
		if AssignProb(avg*2, cost) < p {
			return false
		}
		if AssignProb(avg, cost*2) > p {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// CostCeiling returns the largest placement cost (as a multiple of C_avg)
// that still clears the threshold pmin: from P ≥ P_min follows
// C ≤ C_avg / (−ln(1−P_min)). pmin outside (0,1) returns +Inf (no
// ceiling).
func CostCeiling(pmin float64) float64 {
	if pmin <= 0 || pmin >= 1 {
		return math.Inf(1)
	}
	return 1 / (-math.Log(1 - pmin))
}

func TestCostCeiling(t *testing.T) {
	// From P >= Pmin: C <= C_avg / (-ln(1-Pmin)). At the ceiling the
	// probability equals Pmin exactly.
	for _, pmin := range []float64{0.1, 0.4, 0.63, 0.9} {
		ceil := CostCeiling(pmin)
		avg := 123.0
		p := AssignProb(avg, avg*ceil)
		if math.Abs(p-pmin) > 1e-9 {
			t.Errorf("AssignProb at ceiling(%v) = %v, want %v", pmin, p, pmin)
		}
	}
	if !math.IsInf(CostCeiling(0), 1) || !math.IsInf(CostCeiling(1), 1) {
		t.Error("degenerate pmin should have no ceiling")
	}
}

func TestSelectMapTaskPrefersLocal(t *testing.T) {
	cm, j := fig2Setup(t)
	avail := (&snapshots{}).of([]topology.NodeID{0, 1, 2, 3})
	// On D1 (node 0): M1's block is local (P = 1), M2's is 10 hops away.
	sel, ok := SelectMapTaskWith(cm, Exponential{}, j.Maps, 0, avail)
	if !ok {
		t.Fatal("no candidate selected")
	}
	if sel.Best.MapTask != j.Maps[0] {
		t.Fatalf("selected M%d, want M1 (local data)", sel.Best.MapTask.Index+1)
	}
	if sel.Best.Prob != 1 || sel.Best.Cost != 0 {
		t.Fatalf("local selection P=%v C=%v, want P=1 C=0", sel.Best.Prob, sel.Best.Cost)
	}
	if !sel.HasLocal() || sel.Local.MapTask != j.Maps[0] {
		t.Fatalf("local candidate not tracked: %+v", sel.Local)
	}
	// On D4 (node 3): neither block local; M2 (10 hops from D1... D2→D4 is
	// 4) is nearer than M1 (D1→D4 is 6): M2 wins.
	sel, ok = SelectMapTaskWith(cm, Exponential{}, j.Maps, 3, avail)
	if !ok {
		t.Fatal("no candidate selected on D4")
	}
	if sel.Best.MapTask != j.Maps[1] {
		t.Fatalf("selected M%d on D4, want M2", sel.Best.MapTask.Index+1)
	}
	if sel.Best.Prob <= 0 || sel.Best.Prob >= 1 {
		t.Fatalf("remote selection P=%v, want in (0,1)", sel.Best.Prob)
	}
	if sel.HasLocal() {
		t.Fatalf("no data-local candidate exists on D4, got %+v", sel.Local)
	}
}

func TestSelectMapTaskEmpty(t *testing.T) {
	cm, _ := fig2Setup(t)
	if _, ok := SelectMapTaskWith(cm, Exponential{}, nil, 0, (&snapshots{}).of([]topology.NodeID{0})); ok {
		t.Fatal("selection from empty candidate list succeeded")
	}
}

func TestSelectReduceTask(t *testing.T) {
	cm, j := fig2Setup(t)
	j.Maps[0].State = job.TaskDone
	j.Maps[0].Node = 2
	j.Maps[1].State = job.TaskDone
	j.Maps[1].Node = 1
	rc := cm.NewReduceCoster(j, Oracle{})
	avail := (&snapshots{}).of([]topology.NodeID{0, 1, 2, 3})
	// On D2 (node 1, where the heavy mapper M2 ran) both reduces are
	// cheap; the selection must return the one with the higher P.
	best, ok := SelectReduceTask(rc, Exponential{}, j.Reduces, 1, avail)
	if !ok {
		t.Fatal("no reduce selected")
	}
	other := j.Reduces[1-best.ReduceTask.Index]
	pOther := AssignProb(rc.CostAvg(other.Index, avail), rc.Cost(1, other.Index))
	if best.Prob < pOther {
		t.Fatalf("selected P=%v but other candidate has P=%v", best.Prob, pOther)
	}
}

func TestSelectReduceBeforeAnyMapLaunched(t *testing.T) {
	cm, j := fig2Setup(t)
	rc := cm.NewReduceCoster(j, ProgressScaled{})
	best, ok := SelectReduceTask(rc, Exponential{}, j.Reduces, 0, (&snapshots{}).of([]topology.NodeID{0, 1}))
	if !ok {
		t.Fatal("no reduce selected with zero information")
	}
	// With no launched maps every cost is 0 → P = 1 (assign freely).
	if best.Prob != 1 {
		t.Fatalf("zero-information P = %v, want 1", best.Prob)
	}
}

func TestCentrality(t *testing.T) {
	cm, j := fig2Setup(t)
	j.Maps[0].State = job.TaskDone
	j.Maps[0].Node = 2 // I_1* = [10, 5] at D3
	j.Maps[1].State = job.TaskDone
	j.Maps[1].Node = 1 // I_2* = [20, 10] at D2
	rc := cm.NewReduceCoster(j, Oracle{})
	// For R1 the candidates' costs: D1: 220, D2: 100, D3: 200, D4: 140.
	got, ok := rc.Centrality(0, topology.AllNodes(4))
	if !ok || got != 1 {
		t.Fatalf("Centrality = (%v,%v), want node 1 (D2)", got, ok)
	}
	// Without D2 among the candidates, D4 (140) is the cheapest.
	if got, ok := rc.Centrality(0, topology.AllNodes(4).With(1, false)); !ok || got != 3 {
		t.Fatalf("Centrality without D2 = (%v,%v), want node 3 (D4)", got, ok)
	}
	if _, ok := rc.Centrality(0, topology.NodeSet{}); ok {
		t.Fatal("Centrality with no candidates returned ok")
	}
}

func TestLocalityClassification(t *testing.T) {
	eng := sim.NewEngine()
	spec := topology.DefaultSpec()
	spec.Racks = 2
	spec.NodesPerRack = 4 // 0-3 rack0, 4-7 rack1
	net, err := topology.NewCluster(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	store := hdfs.NewStore(net, sim.NewRNG(1))
	b, err := store.AddBlock(128, 2, fixedPolicy{nodes: []topology.NodeID{1, 5}})
	if err != nil {
		t.Fatal(err)
	}
	m := &job.MapTask{Block: b, Size: 128, Out: []float64{1}}
	if got := Locality(net, store, m, 1); got != job.LocalNode {
		t.Fatalf("on replica node: %v, want local node", got)
	}
	if got := Locality(net, store, m, 0); got != job.LocalRack {
		t.Fatalf("same rack as replica: %v, want local rack", got)
	}
	spec3 := topology.DefaultSpec()
	spec3.Racks = 3
	spec3.NodesPerRack = 4
	net3, err := topology.NewCluster(eng, spec3)
	if err != nil {
		t.Fatal(err)
	}
	store3 := hdfs.NewStore(net3, sim.NewRNG(1))
	b3, err := store3.AddBlock(128, 2, fixedPolicy{nodes: []topology.NodeID{0, 4}})
	if err != nil {
		t.Fatal(err)
	}
	m3 := &job.MapTask{Block: b3, Size: 128, Out: []float64{1}}
	if got := Locality(net3, store3, m3, 9); got != job.Remote {
		t.Fatalf("third rack: %v, want remote", got)
	}
}

func TestNetworkConditionMode(t *testing.T) {
	eng := sim.NewEngine()
	spec := topology.DefaultSpec()
	spec.Racks = 1
	spec.NodesPerRack = 4
	net, err := topology.NewCluster(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	store := hdfs.NewStore(net, sim.NewRNG(1))
	cm, err := NewCostModel(net, store, ModeNetworkCondition)
	if err != nil {
		t.Fatal(err)
	}
	idle := cm.Distance(0, 1)
	if idle <= 0 {
		t.Fatalf("idle inverse-rate distance = %v, want > 0", idle)
	}
	// Congest node 0's uplink and verify the distance grows.
	net.Transfer(0, 2, 1e12, nil)
	busy := cm.Distance(0, 1)
	if busy <= idle {
		t.Fatalf("congested distance %v not above idle %v", busy, idle)
	}
	// Local distance is small but non-zero (1/diskRate).
	local := cm.Distance(1, 1)
	if local <= 0 || local >= idle {
		t.Fatalf("local distance %v, want in (0, %v)", local, idle)
	}
	// Mode validation: network-condition costs read a Cluster's link
	// shares, so any other network is rejected.
	if _, err := NewCostModel(distMatrix(fig2H), store, ModeNetworkCondition); err == nil {
		t.Fatal("network-condition mode over a non-Cluster network accepted")
	}
	if _, err := NewCostModel((*topology.Cluster)(nil), store, ModeNetworkCondition); err == nil {
		t.Fatal("network-condition mode over a nil Cluster accepted")
	}
	// An unknown mode over the Fig. 2 network would otherwise cost by
	// its per-node hop path.
	if _, err := NewCostModel(distMatrix(fig2H), store, Mode(7)); err == nil {
		t.Fatal("unknown cost mode accepted")
	}
	if ModeHops.String() != "hops" || ModeNetworkCondition.String() != "network-condition" {
		t.Fatal("mode strings wrong")
	}
}

func TestNewCostModelValidation(t *testing.T) {
	if _, err := NewCostModel(nil, nil, ModeHops); err == nil {
		t.Fatal("nil deps accepted")
	}
}

func TestMapCostAvgEmptyAvail(t *testing.T) {
	cm, j := fig2Setup(t)
	if got := cm.MapCostAvg(j.Maps[0], (&snapshots{}).of(nil)); got != 0 {
		t.Fatalf("avg over no nodes = %v, want 0", got)
	}
}

func TestMapCostPropertyMonotoneInSize(t *testing.T) {
	cm, j := fig2Setup(t)
	m := j.Maps[0]
	small := *m
	small.Size = m.Size / 2
	for i := 0; i < 4; i++ {
		n := topology.NodeID(i)
		if cm.MapCost(&small, n) > cm.MapCost(m, n) {
			t.Fatalf("halving block size increased cost on node %d", i)
		}
	}
}

// TestSelectReduceSkipsUnreachablePlacements pins the math.IsInf skip of
// Algorithm 2's scan: after a link sever an unreachable placement's
// −Inf saving must neither become a job's "best" nor mask reachable
// candidates, and a task with no reachable placement at all yields
// ok = false rather than a P = 0 assignment.
func TestSelectReduceSkipsUnreachablePlacements(t *testing.T) {
	eng := sim.NewEngine()
	spec := topology.DefaultSpec()
	spec.Racks = 1
	spec.NodesPerRack = 4
	net, err := topology.NewCluster(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	store := hdfs.NewStore(net, sim.NewRNG(1))
	b1, err := store.AddBlock(128, 1, fixedPolicy{nodes: []topology.NodeID{1}})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := store.AddBlock(128, 1, fixedPolicy{nodes: []topology.NodeID{2}})
	if err != nil {
		t.Fatal(err)
	}
	// R1 is fed only by the map on node 1, R2 only by the map on node 2.
	j := job.Assemble(1, job.Spec{Name: "sever", Profile: job.Profile{
		Name: "sever", MapSelectivity: 1, MapRate: 1e6, ReduceRate: 1e6,
	}}, []*job.MapTask{
		{Index: 0, Block: b1, Size: 128, Out: []float64{10, 0}, OutputCurve: 1,
			Node: 1, State: job.TaskDone, Progress: 1},
		{Index: 1, Block: b2, Size: 128, Out: []float64{0, 10}, OutputCurve: 1,
			Node: 2, State: job.TaskDone, Progress: 1},
	}, []*job.ReduceTask{
		{Index: 0, Node: -1},
		{Index: 1, Node: -1},
	})
	cm, err := NewCostModel(net, store, ModeNetworkCondition)
	if err != nil {
		t.Fatal(err)
	}
	net.SetHostLinkFactor(2, 0) // sever R2's only source
	rc := cm.NewReduceCoster(j, Oracle{})

	avail := (&snapshots{}).of([]topology.NodeID{0, 1, 3})
	if c := rc.Cost(0, 1); !math.IsInf(c, 1) {
		t.Fatalf("R2 on node 0 costs %v across a severed link, want +Inf", c)
	}
	best, ok := SelectReduceTask(rc, Exponential{}, j.Reduces, 0, avail)
	if !ok {
		t.Fatal("reachable candidate R1 not selected")
	}
	if best.ReduceTask.Index != 0 {
		t.Fatalf("selected R%d, want R1 (R2 is unreachable)", best.ReduceTask.Index+1)
	}
	if math.IsInf(best.Cost, 1) {
		t.Fatal("selected placement has infinite cost")
	}
	if _, ok := SelectReduceTask(rc, Exponential{}, j.Reduces[1:], 0, avail); ok {
		t.Fatal("task with no reachable placement selected anyway")
	}
}

// fixedProb is a test model returning a recognizable constant for any
// non-local placement.
type fixedProb struct{}

func (fixedProb) Name() string { return "fixed" }
func (fixedProb) Prob(avg, cost float64) float64 {
	if cost <= 0 {
		return 1
	}
	return 0.123
}

// TestSelectionProbComesFromModel pins the single source of truth for
// Choice.Prob: selection computes it with the configured model, so a
// non-default model's probability — not Formula 4's — reaches the gate.
func TestSelectionProbComesFromModel(t *testing.T) {
	cm, j := fig2Setup(t)
	avail := (&snapshots{}).of([]topology.NodeID{0, 1, 2, 3})
	sel, ok := SelectMapTaskWith(cm, fixedProb{}, j.Maps, 3, avail) // remote-only node
	if !ok {
		t.Fatal("no candidate")
	}
	if sel.Best.Prob != 0.123 {
		t.Fatalf("map Choice.Prob = %v, want the model's 0.123", sel.Best.Prob)
	}
	j.Maps[0].State = job.TaskDone
	j.Maps[0].Node = 2
	j.Maps[1].State = job.TaskDone
	j.Maps[1].Node = 1
	rc := cm.NewReduceCoster(j, Oracle{})
	best, ok := SelectReduceTask(rc, fixedProb{}, j.Reduces, 0, avail)
	if !ok {
		t.Fatal("no reduce candidate")
	}
	if best.Prob != 0.123 {
		t.Fatalf("reduce Choice.Prob = %v, want the model's 0.123", best.Prob)
	}
}

// countingModel is Formula 4 with a count of its Prob calls.
type countingModel struct{ calls *int }

func (countingModel) Name() string { return "counting" }
func (m countingModel) Prob(avg, cost float64) float64 {
	*m.calls++
	return AssignProb(avg, cost)
}

// TestSelectionComputesOneProbabilityPerWinner pins the one-probability
// contract: selection ranks by saving, so SelectMapTaskWith evaluates the
// model at most twice per call (Best and Local) and SelectReduceTask at
// most once, however many candidates they scan.
func TestSelectionComputesOneProbabilityPerWinner(t *testing.T) {
	_, cl, cm, j := churnSetup(t, ModeHops, rackShape{3, 8}, 23)
	rng := sim.NewRNG(24)
	snaps := &snapshots{}
	var calls int
	model := countingModel{&calls}
	maxMap, maxReduce := 0, 0
	for round := 0; round < 30; round++ {
		churnMaps(j, len(j.Maps), rng, cl.Size())
		avail := snaps.of(randomAvail(rng, cl.Size()))
		node := topology.NodeID(rng.Intn(cl.Size()))
		calls = 0
		if _, ok := SelectMapTaskWith(cm, model, j.Maps, node, avail); !ok {
			t.Fatalf("round %d: no map candidate", round)
		}
		maxMap = max(maxMap, calls)
		calls = 0
		rc := cm.NewReduceCoster(j, ProgressScaled{})
		if _, ok := SelectReduceTask(rc, model, j.Reduces, node, avail); !ok {
			t.Fatalf("round %d: no reduce candidate", round)
		}
		maxReduce = max(maxReduce, calls)
	}
	if maxMap == 0 || maxMap > 2 {
		t.Fatalf("SelectMapTaskWith called Prob up to %d times per call over %d candidates, want 1 or 2", maxMap, len(j.Maps))
	}
	if maxReduce != 1 {
		t.Fatalf("SelectReduceTask called Prob up to %d times per call over %d candidates, want 1", maxReduce, len(j.Reduces))
	}
}

// TestRationalName pins the label the model comparison prints.
func TestRationalName(t *testing.T) {
	if got := (Rational{}).Name(); got != "rational(k=1)" {
		t.Fatalf("Name() = %q, want rational(k=1)", got)
	}
}
