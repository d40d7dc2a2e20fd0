// Package core implements the paper's contribution: the fine-grained data
// transmission cost model (Formulas 1–3), the progress-based estimator of
// intermediate data size (Section II-B-2), and the probabilistic placement
// rule P = 1 − exp(−C_avg/C) with its threshold P_min (Formulas 4–5,
// Algorithms 1–2). It is deliberately independent of the simulation engine:
// everything here operates on the scheduler-visible state of jobs and the
// network, so the same code could back a real JobTracker plug-in.
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/topology"
)

// Mode selects how the distance matrix H is interpreted.
type Mode int

const (
	// ModeHops uses the hop-count distance matrix H directly (Formula 1–3).
	ModeHops Mode = iota
	// ModeNetworkCondition replaces each h_ab with the inverse of the
	// currently observed transmission rate of the path a→b
	// (Section II-B-3), so congested paths look "farther".
	ModeNetworkCondition
)

// String names the mode for experiment output.
func (m Mode) String() string {
	switch m {
	case ModeHops:
		return "hops"
	case ModeNetworkCondition:
		return "network-condition"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// CostModel evaluates the transmission cost of candidate task placements.
type CostModel struct {
	net   topology.Network
	store *hdfs.Store

	// racks is the network in hop mode when it is a Cluster (nil
	// otherwise, such as for the Fig. 2 test fixture): hop distances
	// between distinct hosts depend only on their racks, so sums over the
	// avail set collapse to per-rack terms.
	racks *topology.Cluster

	// rows caches Formula 1 per input block in hop mode on a Cluster,
	// indexed by BlockID; see row. The store assigns block IDs densely and
	// never frees one, so the slice grows on first use to at most the
	// store's size. One model serves all jobs, and ForgetMaps resets a
	// departed job's rows to empty.
	rows []mapRow

	// rates is the Cluster whose link shares give the distances in
	// network-condition mode (nil in hop mode). Those distances move with
	// every flow churn and do not collapse per rack, but every path starts
	// with its source's uplink and continues on links that depend on the
	// source only through its rack: h_ab = 1/min(UpRate(a),
	// InRate(Rack(a), b)). The per-node sums factor on that split.
	rates *topology.Cluster

	// Hop mode on a Cluster only, each sized to racks.Racks().
	// scratchReps holds rackMapSum's per-rack replicas-in-avail counts.
	// mapCounts holds the map avail set's per-rack member counts at
	// Avail.Version mapCountsVersion (0 = never filled), so every row
	// refilled at one version shares one RackCounts pass; reduceCounts
	// is CostAvg's scratch for the reduce set's.
	scratchReps, mapCounts, reduceCounts []int
	mapCountsVersion                     uint64

	// Network-condition mode only. rackOf[k] = rates.Rack(k), read per
	// avail node by netMapSum in place of an integer division.
	// invUp[k] = 1/UpRate(k) at the cluster epoch invUpEpoch (valid once
	// invUpSet); see invUpRow. scratchInv is netHSums' reciprocal row for
	// one source rack r: scratchInv[k] = 1/InRate(r, k) for avail node k.
	rackOf     []int32
	invUp      []float64
	invUpEpoch uint64
	invUpSet   bool
	scratchInv []float64
}

// NewCostModel builds a cost model over net in one of the two modes.
// ModeNetworkCondition requires net to be a *topology.Cluster: the
// distances read its link shares.
func NewCostModel(net topology.Network, store *hdfs.Store, mode Mode) (*CostModel, error) {
	if net == nil || store == nil {
		return nil, fmt.Errorf("core: nil network or store")
	}
	c := &CostModel{net: net, store: store}
	cl, _ := net.(*topology.Cluster)
	switch mode {
	case ModeNetworkCondition:
		if cl == nil {
			return nil, fmt.Errorf("core: network-condition mode requires a *topology.Cluster network, got %T", net)
		}
		c.rates = cl
		c.rackOf = make([]int32, cl.Size())
		for k := range c.rackOf {
			c.rackOf[k] = int32(cl.Rack(topology.NodeID(k)))
		}
		c.invUp = make([]float64, cl.Size())
		c.scratchInv = make([]float64, cl.Size())
	case ModeHops:
		if cl != nil {
			c.racks = cl
			c.scratchReps = make([]int, cl.Racks())
			c.mapCounts = make([]int, cl.Racks())
			c.reduceCounts = make([]int, cl.Racks())
		}
	default:
		return nil, fmt.Errorf("core: unknown cost mode %v", mode)
	}
	return c, nil
}

// Distance returns the effective H entry for the pair (a, b): hop count in
// ModeHops, or 1/rate in ModeNetworkCondition. The diagonal of H is 0 in
// hop mode; in network-condition mode a local transfer costs 1/diskRate,
// which is negligible next to any network path, preserving the paper's
// "local task has (almost) zero cost" property.
func (c *CostModel) Distance(a, b topology.NodeID) float64 {
	if c.rates != nil {
		return invRate(c.rates.PathRate(a, b))
	}
	return c.net.Distance(a, b)
}

// invRate is a network-condition distance: 1/r, and +Inf for a rate of 0
// (a severed link). Correctly rounded 1/x is monotone non-increasing, so
// for the finite, non-negative rates of a Cluster
// invRate(min(x, y)) == max(invRate(x), invRate(y)) and
// min_l invRate(x_l) == invRate(max_l x_l) bit for bit: the factored
// sums below rely on exactly this.
func invRate(r float64) float64 {
	if r <= 0 {
		return math.Inf(1)
	}
	return 1 / r
}

// DistanceEpoch returns a counter that advances whenever a cost derived
// from Distance and the block store may change. The counter is the sum of
// two monotone components: the store's replica-mutation epoch (replica
// loss moves a block's nearest replica even when distances are static)
// and, in network-condition mode, the cluster's rate-recompute epoch.
// Since both only grow, equal sums imply both are unchanged. In hop mode
// with an immutable store the value is constantly 0, preserving pre-fault
// cache behaviour.
func (c *CostModel) DistanceEpoch() uint64 {
	if c.rates == nil {
		return c.store.Epoch()
	}
	return c.rates.Epoch() + c.store.Epoch()
}

// MapCost returns C_m(i,j) = B_j · min_{l: L_lj=1} h_il (Formula 1): the
// cost of running map task m on node i, reading from the nearest replica.
// In hop mode on a Cluster the nearest-replica distance depends only on
// i's rack — except on a replica node itself, where it is 0 — so it is
// read from the block's row.
func (c *CostModel) MapCost(m *job.MapTask, i topology.NodeID) float64 {
	if c.racks != nil {
		return c.rowCost(m, c.row(m), i)
	}
	best := math.Inf(1)
	for _, l := range c.store.Replicas(m.Block) {
		if d := c.Distance(i, l); d < best {
			best = d
			if best == 0 {
				break
			}
		}
	}
	if math.IsInf(best, 1) {
		return math.Inf(1) // no replicas: unschedulable
	}
	return m.Size * best
}

// MapCostAvg returns C_avg = Σ_k C_m(k,j) / N_m over the nodes that
// currently have free map slots (Algorithm 1 line 6). On a Cluster in hop
// mode the per-node sum collapses to Σ_r n'_r · minD_r where n'_r counts
// the rack's free non-replica nodes (replica members cost 0) and minD_r
// is the rack's nearest-replica distance, read from the block's row; the
// row keeps the sum until the avail snapshot's Version moves. In
// network-condition mode netMapSum costs each node in O(1).
func (c *CostModel) MapCostAvg(m *job.MapTask, a Avail) float64 {
	n := a.Nodes.Len()
	if n == 0 {
		return 0
	}
	if c.racks != nil {
		return c.rowAvg(m, c.row(m), a)
	}
	if c.rates != nil {
		return c.netMapSum(m, a.Nodes) / float64(n)
	}
	var sum float64
	a.Nodes.Each(func(k topology.NodeID) { sum += c.MapCost(m, k) })
	return sum / float64(n)
}

// MapCosts returns Formula 1's pair for Algorithm 1: C = MapCost(m, i)
// and C_avg = MapCostAvg(m, avail), fetching the block's row once in hop
// mode on a Cluster. When C is +Inf the task is unschedulable on i, and
// avg is left 0 without being computed.
func (c *CostModel) MapCosts(m *job.MapTask, i topology.NodeID, avail Avail) (cost, avg float64) {
	if c.racks == nil {
		if cost = c.MapCost(m, i); math.IsInf(cost, 1) {
			return cost, 0
		}
		return cost, c.MapCostAvg(m, avail)
	}
	r := c.row(m)
	if cost = c.rowCost(m, r, i); math.IsInf(cost, 1) || avail.Nodes.Len() == 0 {
		return cost, 0
	}
	return cost, c.rowAvg(m, r, avail)
}

// rowCost is MapCost read from the block's row r.
func (c *CostModel) rowCost(m *job.MapTask, r *mapRow, i topology.NodeID) float64 {
	if c.store.HasReplica(m.Block, i) {
		return 0 // m.Size · h_ii = 0
	}
	d := r.rackMinD[c.racks.Rack(i)]
	if math.IsInf(d, 1) {
		return math.Inf(1) // no replicas: unschedulable
	}
	return m.Size * d
}

// rowAvg is MapCostAvg over a non-empty avail set, read from the block's
// row r and refilling its cost sum when a.Version has moved.
func (c *CostModel) rowAvg(m *job.MapTask, r *mapRow, a Avail) float64 {
	if r.sumVersion != a.Version {
		if c.mapCountsVersion != a.Version {
			c.racks.RackCounts(a.Nodes, c.mapCounts)
			c.mapCountsVersion = a.Version
		}
		r.costSum = m.Size * c.rackMapSum(c.store.Replicas(m.Block), a.Nodes, c.mapCounts, r.rackMinD)
		r.sumVersion = a.Version
	}
	return r.costSum / float64(a.Nodes.Len())
}

// mapRow is one input block's Formula 1 cache in hop mode on a Cluster:
// the per-rack nearest-replica distances and the cost sum feeding C_avg.
// The zero value is an empty row (rackMinD nil).
type mapRow struct {
	rackMinD   []float64 // per rack: min over replicas of RackDistance
	epoch      uint64    // distance epoch the row was filled at
	sumVersion uint64    // Avail.Version costSum was computed at (0 = stale)
	costSum    float64   // Σ_{k in avail} C_m(k, j), before the /N_m division
}

// row returns the (refreshed) distance row for the task's block. Rack
// distances are hop counts and never change, so a row only goes stale
// when its block loses a replica — which DistanceEpoch (the store's
// replica-mutation epoch in hop mode) signals exactly. The pointer is
// valid until the next call grows the rows.
func (c *CostModel) row(m *job.MapTask) *mapRow {
	ep := c.DistanceEpoch()
	if int(m.Block) >= len(c.rows) {
		n := c.store.NumBlocks()
		c.rows = slices.Grow(c.rows, n-len(c.rows))[:n]
	}
	r := &c.rows[m.Block]
	if r.rackMinD == nil {
		r.rackMinD = make([]float64, c.racks.Racks())
	} else if r.epoch == ep {
		return r
	}
	c.rackMinD(c.store.Replicas(m.Block), r.rackMinD)
	r.epoch = ep
	r.sumVersion = 0 // distances changed: cached cost sum is stale
	return r
}

// MapRows returns the number of filled block rows.
func (c *CostModel) MapRows() int {
	n := 0
	for i := range c.rows {
		if c.rows[i].rackMinD != nil {
			n++
		}
	}
	return n
}

// ForgetMaps empties the cached rows of a job's blocks. Blocks belong to
// exactly one job's input file, so this cannot evict another job's state.
func (c *CostModel) ForgetMaps(j *job.Job) {
	for _, m := range j.Maps {
		if int(m.Block) < len(c.rows) {
			c.rows[m.Block] = mapRow{}
		}
	}
}

// invUpRow returns the row 1/UpRate(k) over every node, refilled once per
// cluster epoch: the shares only change with it, and the per-node terms
// of every candidate task in an offer read the same row.
func (c *CostModel) invUpRow() []float64 {
	if ep := c.rates.Epoch(); !c.invUpSet || ep != c.invUpEpoch {
		for k := range c.invUp {
			c.invUp[k] = 1 / c.rates.UpRate(topology.NodeID(k))
		}
		c.invUpEpoch, c.invUpSet = ep, true
	}
	return c.invUp
}

// netMapSum returns Σ_{k in avail} C_m(k,j) in network-condition mode,
// adding the same per-node terms in the same node order as summing
// MapCost. A non-replica node k reads from its best replica over the
// path k → l, whose rate is min(UpRate(k), InRate(rack(k), l)), so its
// nearest-replica distance is invRate(min(UpRate(k), Y)) =
// max(1/UpRate(k), 1/Y) (see invRate) with Y = max_l InRate(rack(k), l)
// (0, hence +Inf, without replicas). Avail is walked in ascending order
// and a rack's nodes are contiguous, so Y is taken once per rack the
// avail set touches. A replica node adds its local read at 1/DiskBps to
// the minimum, so it keeps the direct MapCost.
func (c *CostModel) netMapSum(m *job.MapTask, avail topology.NodeSet) float64 {
	replicas := c.store.Replicas(m.Block)
	invUp := c.invUpRow()
	var sum float64
	rack, invY := -1, 0.0
	avail.Each(func(k topology.NodeID) {
		if slices.Contains(replicas, k) {
			sum += c.MapCost(m, k)
			return
		}
		if r := int(c.rackOf[k]); r != rack {
			y := 0.0
			for _, l := range replicas {
				if in := c.rates.InRate(r, l); in > y {
					y = in
				}
			}
			rack, invY = r, 1/y
		}
		// invRate(min(UpRate(k), Y)) without a division per node.
		d := invUp[k]
		if invY > d {
			d = invY
		}
		if math.IsInf(d, 1) {
			sum += d // no reachable replica: unschedulable here
			return
		}
		sum += float64(m.Size * d)
	})
	return sum
}

// rackMinD fills minD[r] with rack r's nearest-replica distance
// min_{l: L_lj=1} RackDistance(r, rack(l)) — the rack-collapsed form of
// Formula 1's inner minimum (all-Inf when the block has no replicas). It
// is the distance from a non-replica node of rack r; the replica nodes
// themselves read locally at distance 0.
func (c *CostModel) rackMinD(replicas []topology.NodeID, minD []float64) {
	for r := range minD {
		best := math.Inf(1)
		for _, l := range replicas {
			if d := c.racks.RackDistance(r, c.racks.Rack(l)); d < best {
				best = d
			}
		}
		minD[r] = best
	}
}

// rackMapSum returns Σ_r n'_r · minD_r with n'_r = free nodes of rack r
// (counts, avail's per-rack member counts) minus the block's replicas
// among them (a replica node reads locally at distance 0). rowAvg is its
// one caller; the tests rebuild the same sum, in the same rack order,
// from the replica list.
func (c *CostModel) rackMapSum(replicas []topology.NodeID, avail topology.NodeSet, counts []int, minD []float64) float64 {
	reps := c.scratchReps
	for _, l := range replicas {
		if avail.Has(l) {
			reps[c.racks.Rack(l)]++
		}
	}
	var sum float64
	for r, n := range counts {
		if n -= reps[r]; n > 0 {
			sum += float64(float64(n) * minD[r])
		}
	}
	for _, l := range replicas {
		reps[c.racks.Rack(l)] = 0
	}
	return sum
}

// rackHSum returns Σ_{k in avail} h(p, k) collapsed to per-rack terms:
// each rack contributes count·RackDistance(rack(p), r), with p itself
// excluded from its own rack (h(p,p) = 0). counts are avail's per-rack
// member counts (Cluster.RackCounts).
func (c *CostModel) rackHSum(p topology.NodeID, counts []int, avail topology.NodeSet) float64 {
	rp := c.racks.Rack(p)
	self := 0
	if avail.Has(p) {
		self = 1
	}
	var sum float64
	for r, n := range counts {
		if r == rp {
			n -= self
		}
		if n > 0 {
			sum += float64(float64(n) * c.racks.RackDistance(rp, r))
		}
	}
	return sum
}

// Locality classifies a map placement on net for the Table III metrics:
// on a replica node, in a replica's rack, or remote.
func Locality(net topology.Network, store *hdfs.Store, m *job.MapTask, i topology.NodeID) job.Locality {
	rack := net.Rack(i)
	sameRack := false
	for _, l := range store.Replicas(m.Block) {
		if l == i {
			return job.LocalNode
		}
		if net.Rack(l) == rack {
			sameRack = true
		}
	}
	if sameRack {
		return job.LocalRack
	}
	return job.Remote
}

// ReduceCoster evaluates Formula 3 for one job. It aggregates the
// estimated intermediate volume by map-hosting node (S_pf = Σ_{maps j on
// p} Î_jf), so evaluating a candidate node costs O(#map-nodes) rather
// than O(#maps). Nodes are kept in ascending NodeID order so that a fresh
// build and an incrementally Refreshed coster are bit-identical.
type ReduceCoster struct {
	cm  *CostModel
	j   *job.Job
	est Estimator

	nodes   []topology.NodeID       // nodes hosting ≥1 launched map, ascending
	idx     map[topology.NodeID]int // node → index into nodes/s/members
	s       [][]float64             // s[pi][f] = S_pf
	members [][]int                 // members[pi] = map indices on node pi, ascending

	// Per-map snapshot consumed by Refresh to detect which rows changed.
	lastNode  []topology.NodeID // node at last snapshot; -1 when excluded
	lastScale []float64         // Scale(m) at last snapshot
	dirtyBuf  []topology.NodeID

	// CostAvg cache: hSum[pi] = Σ_{k in avail} h(p_i, k) for the avail set
	// last seen, so the average over candidate nodes is O(#map-nodes) per
	// partition instead of O(#avail × #map-nodes). availEpoch records the
	// distance epoch the sums were computed at and availVersion the
	// Avail.Version; availVersion is reset to 0 (no snapshot has it)
	// whenever the map-node set changes structurally.
	availEpoch   uint64
	availVersion uint64
	hSum         []float64

	// Cost's row memo: dist[pi] = Distance(p_i, distNode) at distEpoch,
	// valid while distValid (cleared with hSum when the node set
	// changes), so the pending reduces of one offer share one row.
	dist      []float64
	distNode  topology.NodeID
	distEpoch uint64
	distValid bool
}

// NewReduceCoster snapshots the launched maps of j under the estimator.
// Only maps that have been assigned to a node (x_jp defined) contribute,
// matching Formula 2's use of the placement matrix X.
func (c *CostModel) NewReduceCoster(j *job.Job, est Estimator) *ReduceCoster {
	rc := &ReduceCoster{cm: c, j: j, est: est}
	rc.idx = make(map[topology.NodeID]int)
	rc.lastNode = make([]topology.NodeID, len(j.Maps))
	rc.lastScale = make([]float64, len(j.Maps))
	rc.rebuild()
	return rc
}

// Job returns the job this coster snapshots.
func (rc *ReduceCoster) Job() *job.Job { return rc.j }

// rebuild recomputes the whole snapshot from the job's current state.
func (rc *ReduceCoster) rebuild() {
	for p := range rc.idx {
		delete(rc.idx, p)
	}
	rc.nodes = rc.nodes[:0]
	rc.members = rc.members[:0]
	for i, m := range rc.j.Maps {
		if m.State == job.TaskPending || m.Node < 0 {
			rc.lastNode[i] = -1
			continue
		}
		rc.lastNode[i] = m.Node
		rc.lastScale[i] = rc.est.Scale(m)
		pi, ok := rc.idx[m.Node]
		if !ok {
			pi = len(rc.nodes)
			rc.idx[m.Node] = pi
			rc.nodes = append(rc.nodes, m.Node)
			rc.members = append(rc.members, nil)
		}
		rc.members[pi] = append(rc.members[pi], i)
	}
	sort.Sort(byNode{rc})
	rc.s = make([][]float64, len(rc.nodes))
	nf := rc.j.NumReduces()
	for pi, p := range rc.nodes {
		rc.idx[p] = pi
		rc.s[pi] = make([]float64, nf)
		rc.computeRow(pi)
	}
	rc.availVersion, rc.distValid = 0, false
}

// byNode sorts the node list and the parallel member lists together.
type byNode struct{ rc *ReduceCoster }

func (b byNode) Len() int           { return len(b.rc.nodes) }
func (b byNode) Less(i, j int) bool { return b.rc.nodes[i] < b.rc.nodes[j] }
func (b byNode) Swap(i, j int) {
	b.rc.nodes[i], b.rc.nodes[j] = b.rc.nodes[j], b.rc.nodes[i]
	b.rc.members[i], b.rc.members[j] = b.rc.members[j], b.rc.members[i]
}

// computeRow re-aggregates S_pf = Σ Out[f]·Scale(m) for one node from its
// member maps in task order. Both the full rebuild and the incremental
// Refresh funnel through this function, so their float accumulation order
// — and hence every derived cost — is identical.
func (rc *ReduceCoster) computeRow(pi int) {
	nf := rc.j.NumReduces()
	row := rc.s[pi]
	for f := range row {
		row[f] = 0
	}
	for _, mi := range rc.members[pi] {
		m := rc.j.Maps[mi]
		sc := rc.lastScale[mi]
		for f := 0; f < nf; f++ {
			row[f] += float64(m.Out[f] * sc)
		}
	}
}

// Refresh brings the snapshot up to date with the job's current task
// state. Only the rows whose contributing maps changed (progress
// advanced, launched, finished, moved or reverted) are re-aggregated. The refreshed coster is bit-identical to a fresh
// NewReduceCoster of the same job state.
func (rc *ReduceCoster) Refresh() {
	if len(rc.lastNode) != len(rc.j.Maps) {
		rc.rebuild()
		return
	}
	dirty := rc.dirtyBuf[:0]
	structural := false
	for i, m := range rc.j.Maps {
		cur := topology.NodeID(-1)
		if m.State != job.TaskPending && m.Node >= 0 {
			cur = m.Node
		}
		if cur == rc.lastNode[i] {
			if cur < 0 {
				continue
			}
			if sc := rc.est.Scale(m); sc != rc.lastScale[i] {
				rc.lastScale[i] = sc
				dirty = append(dirty, cur)
			}
			continue
		}
		if old := rc.lastNode[i]; old >= 0 {
			pi := rc.idx[old]
			rc.members[pi] = removeInt(rc.members[pi], i)
			dirty = append(dirty, old)
		}
		if cur >= 0 {
			pi, ok := rc.idx[cur]
			if !ok {
				pi = rc.insertNode(cur)
				structural = true
			}
			rc.members[pi] = insertInt(rc.members[pi], i)
			rc.lastScale[i] = rc.est.Scale(m)
			dirty = append(dirty, cur)
		}
		rc.lastNode[i] = cur
	}
	rc.dirtyBuf = dirty
	if len(dirty) == 0 {
		return
	}
	for _, p := range dirty {
		if pi, ok := rc.idx[p]; ok && len(rc.members[pi]) == 0 {
			rc.removeNode(pi)
			structural = true
		}
	}
	for _, p := range dirty {
		if pi, ok := rc.idx[p]; ok {
			rc.computeRow(pi)
		}
	}
	if structural {
		// node set changed: the hSum and distance rows are stale
		rc.availVersion, rc.distValid = 0, false
	}
}

// insertNode splices a new node into the sorted node list and returns its
// index.
func (rc *ReduceCoster) insertNode(p topology.NodeID) int {
	pi := sort.Search(len(rc.nodes), func(k int) bool { return rc.nodes[k] >= p })
	rc.nodes = append(rc.nodes, 0)
	copy(rc.nodes[pi+1:], rc.nodes[pi:])
	rc.nodes[pi] = p
	rc.members = append(rc.members, nil)
	copy(rc.members[pi+1:], rc.members[pi:])
	rc.members[pi] = nil
	rc.s = append(rc.s, nil)
	copy(rc.s[pi+1:], rc.s[pi:])
	rc.s[pi] = make([]float64, rc.j.NumReduces())
	for k := pi; k < len(rc.nodes); k++ {
		rc.idx[rc.nodes[k]] = k
	}
	return pi
}

// removeNode drops the node at index pi, keeping the lists sorted.
func (rc *ReduceCoster) removeNode(pi int) {
	delete(rc.idx, rc.nodes[pi])
	copy(rc.nodes[pi:], rc.nodes[pi+1:])
	rc.nodes = rc.nodes[:len(rc.nodes)-1]
	copy(rc.members[pi:], rc.members[pi+1:])
	rc.members = rc.members[:len(rc.members)-1]
	copy(rc.s[pi:], rc.s[pi+1:])
	rc.s = rc.s[:len(rc.s)-1]
	for k := pi; k < len(rc.nodes); k++ {
		rc.idx[rc.nodes[k]] = k
	}
}

// insertInt inserts v into sorted slice a.
func insertInt(a []int, v int) []int {
	k := sort.SearchInts(a, v)
	a = append(a, 0)
	copy(a[k+1:], a[k:])
	a[k] = v
	return a
}

// removeInt removes v from sorted slice a if present.
func removeInt(a []int, v int) []int {
	k := sort.SearchInts(a, v)
	if k < len(a) && a[k] == v {
		copy(a[k:], a[k+1:])
		a = a[:len(a)-1]
	}
	return a
}

// Cost returns C_r(i,f) = Σ_p h_pi · S_pf (Formula 3) for reduce index f
// placed on node i. The distances h_pi are memoized per (i, distance
// epoch, map-node set), so scanning every pending reduce of a job for one
// offer walks them once.
func (rc *ReduceCoster) Cost(i topology.NodeID, f int) float64 {
	dist := rc.distRow(i)
	var sum float64
	for pi := range rc.nodes {
		if s := rc.s[pi][f]; s > 0 {
			sum += float64(dist[pi] * s)
		}
	}
	return sum
}

// distRow returns the memoized row Distance(p, i) over the map nodes p.
func (rc *ReduceCoster) distRow(i topology.NodeID) []float64 {
	ep := rc.cm.DistanceEpoch()
	if rc.distValid && rc.distNode == i && rc.distEpoch == ep {
		return rc.dist
	}
	if cap(rc.dist) < len(rc.nodes) {
		rc.dist = make([]float64, len(rc.nodes))
	}
	rc.dist = rc.dist[:len(rc.nodes)]
	for pi, p := range rc.nodes {
		rc.dist[pi] = rc.cm.Distance(p, i)
	}
	rc.distNode, rc.distEpoch, rc.distValid = i, ep, true
	return rc.dist
}

// CostAvg returns C_avg = Σ_k C_r(k,f) / N_r over nodes with free reduce
// slots (Algorithm 2 line 7). Summation is reordered as
// Σ_p S_pf · (Σ_k h_pk), with the inner distance sums cached per
// (distance epoch, a.Version, map-node set); the result is identical to
// averaging Cost over avail. On a Cluster in hop mode each inner sum is
// the O(racks) rackHSum over the per-rack counts; in network-condition
// mode netHSums refills them without a division per pair.
func (rc *ReduceCoster) CostAvg(f int, a Avail) float64 {
	avail := a.Nodes
	if avail.Len() == 0 {
		return 0
	}
	if ep := rc.cm.DistanceEpoch(); ep != rc.availEpoch || a.Version != rc.availVersion {
		rc.availEpoch, rc.availVersion = ep, a.Version
		if cap(rc.hSum) < len(rc.nodes) {
			rc.hSum = make([]float64, len(rc.nodes))
		}
		rc.hSum = rc.hSum[:len(rc.nodes)]
		if rc.cm.racks != nil {
			counts := rc.cm.reduceCounts
			rc.cm.racks.RackCounts(avail, counts)
			for pi, p := range rc.nodes {
				rc.hSum[pi] = rc.cm.rackHSum(p, counts, avail)
			}
		} else if rc.cm.rates != nil {
			rc.netHSums(avail)
		} else {
			for pi, p := range rc.nodes {
				var h float64
				avail.Each(func(k topology.NodeID) { h += rc.cm.Distance(p, k) })
				rc.hSum[pi] = h
			}
		}
	}
	var sum float64
	for pi := range rc.nodes {
		if v := rc.s[pi][f]; v > 0 {
			sum += float64(v * rc.hSum[pi])
		}
	}
	return sum / float64(avail.Len())
}

// netHSums fills hSum[pi] = Σ_{k in avail} Distance(p_i, k) in
// network-condition mode, adding in avail order as the per-pair sum does.
// For k != p, Distance(p, k) = invRate(min(UpRate(p), InRate(rack(p), k)))
// = max(1/UpRate(p), 1/InRate(rack(p), k)) exactly (see invRate), so each
// avail node costs one max against a reciprocal row shared by the source
// rack, and no division per pair. The node list is ascending
// and a rack's nodes are contiguous, so the row is refilled once per
// source rack; the diagonal term is the local read, Distance(p, p).
func (rc *ReduceCoster) netHSums(avail topology.NodeSet) {
	cl := rc.cm.rates
	inv := rc.cm.scratchInv
	invUp := rc.cm.invUpRow()
	rack := -1
	for pi, p := range rc.nodes {
		if r := cl.Rack(p); r != rack {
			rack = r
			avail.Each(func(k topology.NodeID) { inv[k] = 1 / cl.InRate(r, k) })
		}
		up := invUp[p]
		var h float64
		avail.Each(func(k topology.NodeID) {
			if k == p {
				h += rc.cm.Distance(p, p)
				return
			}
			d := inv[k]
			if up > d {
				d = up
			}
			h += d
		})
		rc.hSum[pi] = h
	}
}

// OnNode returns S_if: the estimated bytes of partition f already resident
// on node i (produced by maps that ran there).
func (rc *ReduceCoster) OnNode(i topology.NodeID, f int) float64 {
	if pi, ok := rc.idx[i]; ok {
		return rc.s[pi][f]
	}
	return 0
}

// TotalEstimated returns Σ_p S_pf: the estimated total shuffle input of
// reduce f from maps launched so far.
func (rc *ReduceCoster) TotalEstimated(f int) float64 {
	var sum float64
	for pi := range rc.nodes {
		sum += rc.s[pi][f]
	}
	return sum
}

// Centrality returns the node among candidates minimizing Cost(i, f) — the
// data-"centrality" node used by the Coupling scheduler baseline; ties go
// to the lowest ID. Returns false if candidates is empty.
func (rc *ReduceCoster) Centrality(f int, candidates topology.NodeSet) (topology.NodeID, bool) {
	var best topology.NodeID
	var bestC float64
	first := true
	candidates.Each(func(k topology.NodeID) {
		if c := rc.Cost(k, f); first || c < bestC {
			best, bestC, first = k, c, false
		}
	})
	return best, !first
}
