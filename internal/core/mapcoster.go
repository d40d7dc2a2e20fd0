package core

import (
	"math"

	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/topology"
)

// MapCoster caches Formula 1 evaluations across scheduling rounds on a
// Cluster in hop mode. For each input block it precomputes the
// nearest-replica distance min_{l: L_lj=1} RackDistance(r, rack(l)) per
// rack r, and for the avail-node set of the current round it caches the
// per-block cost sum feeding C_avg. Rack distances are hop counts and
// never change, so a row only goes stale when its block loses a replica —
// which the CostModel's DistanceEpoch (the store's replica-mutation epoch
// in hop mode) signals exactly. Every value it
// returns is bit-identical to the uncached CostModel.MapCost / MapCostAvg.
type MapCoster struct {
	cm   *CostModel
	rows map[hdfs.BlockID]*mapRow

	avail []topology.NodeID
	// seq numbers the distinct avail sets seen (rows memoize their cost
	// sum against it); lastExt is the producer's Avail.Version for the
	// current set, giving an O(1) revalidation instead of the O(nodes)
	// list comparison.
	seq     uint64
	lastExt uint64
}

type mapRow struct {
	rackMinD   []float64 // per rack: min over replicas of RackDistance
	epoch      uint64    // distance epoch the row was filled at
	sumVersion uint64    // seq costSum was computed at (0 = stale)
	costSum    float64   // Σ_{k in avail} C_m(k, j), before the /N_m division
}

// newMapCoster builds an empty cache over a model that collapses sums per
// rack (see MapEvaluator). One MapCoster serves all jobs; call Forget when a
// job completes to release its rows.
func (c *CostModel) newMapCoster() *MapCoster {
	return &MapCoster{cm: c, rows: make(map[hdfs.BlockID]*mapRow), seq: 1}
}

// row returns the (refreshed) distance row for the task's block.
func (mc *MapCoster) row(m *job.MapTask) *mapRow {
	ep := mc.cm.DistanceEpoch()
	r := mc.rows[m.Block]
	if r == nil {
		r = &mapRow{rackMinD: make([]float64, mc.cm.racks.Racks())}
		mc.rows[m.Block] = r
	} else if r.epoch == ep {
		return r
	}
	mc.cm.rackMinD(mc.cm.store.Replicas(m.Block), r.rackMinD)
	r.epoch = ep
	r.sumVersion = 0 // distances changed: cached cost sum is stale
	return r
}

// Cost returns C_m(i,j) (Formula 1), bit-identical to CostModel.MapCost.
// The nearest-replica distance depends only on i's rack — except on a
// replica node itself, where it is 0.
func (mc *MapCoster) Cost(m *job.MapTask, i topology.NodeID) float64 {
	r := mc.row(m)
	if mc.cm.store.HasReplica(m.Block, i) {
		return 0 // m.Size · h_ii = 0
	}
	d := r.rackMinD[mc.cm.racks.Rack(i)]
	if math.IsInf(d, 1) {
		return math.Inf(1) // no replicas: unschedulable
	}
	return m.Size * d
}

// syncAvail adopts the offered avail snapshot: a matching non-zero
// version is an O(1) hit, an equal node list re-arms the version, and
// anything else starts a new seq era (invalidating the per-row sums).
func (mc *MapCoster) syncAvail(a Avail) {
	if a.Version != 0 && a.Version == mc.lastExt {
		return
	}
	if equalNodes(mc.avail, a.Nodes) {
		mc.lastExt = a.Version
		return
	}
	mc.avail = append(mc.avail[:0], a.Nodes...)
	mc.lastExt = a.Version
	mc.seq++
}

// CostAvg returns C_avg over the avail set, bit-identical to
// CostModel.MapCostAvg: both funnel through CostModel.rackMapSum.
func (mc *MapCoster) CostAvg(m *job.MapTask, a Avail) float64 {
	if len(a.Nodes) == 0 {
		return 0
	}
	mc.syncAvail(a)
	r := mc.row(m)
	if r.sumVersion != mc.seq {
		counts := a.Counts
		if counts == nil {
			counts = mc.cm.scanRackCounts(mc.avail)
		}
		replicas := mc.cm.store.Replicas(m.Block)
		r.costSum = m.Size * mc.cm.rackMapSum(replicas, mc.avail, counts, r.rackMinD)
		r.sumVersion = mc.seq
	}
	return r.costSum / float64(len(a.Nodes))
}

// Len returns the number of cached block rows.
func (mc *MapCoster) Len() int { return len(mc.rows) }

// Forget drops the cached rows of a job's blocks. Blocks belong to
// exactly one job's input file, so this cannot evict another job's state.
func (mc *MapCoster) Forget(j *job.Job) {
	for _, m := range j.Maps {
		delete(mc.rows, m.Block)
	}
}
