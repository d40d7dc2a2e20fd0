package core

import (
	"math"
	"slices"
	"testing"

	"mapsched/internal/job"
	"mapsched/internal/topology"
)

// FuzzAssignProb checks that every (avg, cost) pair, however degenerate,
// yields a probability in [0, 1] under every built-in model.
func FuzzAssignProb(f *testing.F) {
	f.Add(100.0, 50.0)
	f.Add(0.0, 0.0)
	f.Add(-5.0, 3.0)
	f.Add(math.MaxFloat64, 1.0)
	f.Add(math.Inf(1), 1.0) // regression: Rational once returned NaN here
	f.Fuzz(func(t *testing.T, avg, cost float64) {
		if math.IsNaN(avg) || math.IsNaN(cost) {
			return
		}
		for _, m := range Models() {
			p := m.Prob(avg, cost)
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Fatalf("%s.Prob(%v, %v) = %v", m.Name(), avg, cost, p)
			}
		}
	})
}

// FuzzCostCeiling checks the ceiling inverts the probability formula for
// all thresholds in (0,1).
func FuzzCostCeiling(f *testing.F) {
	f.Add(0.4)
	f.Add(0.999)
	f.Fuzz(func(t *testing.T, pmin float64) {
		if math.IsNaN(pmin) {
			return
		}
		c := CostCeiling(pmin)
		if pmin <= 0 || pmin >= 1 {
			if !math.IsInf(c, 1) {
				t.Fatalf("degenerate pmin %v has finite ceiling %v", pmin, c)
			}
			return
		}
		if c <= 0 {
			t.Fatalf("ceiling(%v) = %v", pmin, c)
		}
		got := AssignProb(1, c)
		if math.Abs(got-pmin) > 1e-6 {
			t.Fatalf("AssignProb at ceiling(%v) = %v", pmin, got)
		}
	})
}

// FuzzSelectMapTaskMatchesNaive runs Algorithm 1's selection through the
// cost model's cached block rows and through the naive oracle on the same
// inputs and requires the same MapSelection, field for field, Prob
// included. Each input selects under one avail set (filling rows), edits
// the replica sets, and selects again under a second avail set and then
// the first. An edit, three bytes (op, block, node), adds a replica on
// the node, drops the node's replicas of every block (a lost disk),
// clears the block's replicas (leaving it unschedulable) or forgets a
// job's rows; every replica change moves the store epoch. An avail
// mask's bit k puts node k in the set.
func FuzzSelectMapTaskMatchesNaive(f *testing.F) {
	f.Add([]byte{0, 3, 2, 1, 7, 9, 2, 5, 0}, uint32(0xffffff), uint32(0xf0f0f0), uint8(4), uint8(0))
	f.Add([]byte{2, 0, 0, 2, 1, 0, 3, 0, 0}, uint32(0x00ff00), uint32(0x0000ff), uint8(9), uint8(1))
	f.Add([]byte{1, 40, 3, 0, 41, 3}, uint32(0), uint32(0x800001), uint8(23), uint8(2))
	f.Add([]byte{3, 1, 0, 0, 12, 17}, uint32(0x123456), uint32(0x123456), uint8(17), uint8(3))
	f.Fuzz(func(t *testing.T, edits []byte, avail1, avail2 uint32, node, model uint8) {
		_, cl, cm, j := churnSetup(t, ModeHops, rackShape{3, 8}, 31)
		small, tasks := mixedTasks(t, cm, j, 37)
		n := cl.Size()
		mdl := Models()[int(model)%len(Models())]
		offered := topology.NodeID(int(node) % n)
		snaps := &snapshots{}
		check := func(mask uint32) {
			t.Helper()
			var nodes []topology.NodeID
			for k := 0; k < n; k++ {
				if mask&(1<<k) != 0 {
					nodes = append(nodes, topology.NodeID(k))
				}
			}
			a := snaps.of(nodes)
			got, okG := SelectMapTaskWith(cm, mdl, tasks, offered, a)
			want, okW := SelectMapTaskWith(naiveMapCost{cm}, mdl, tasks, offered, a)
			if okG != okW || got != want {
				t.Fatalf("%s on node %d, avail %v: rows give %+v (%v), naive %+v (%v)",
					mdl.Name(), offered, nodes, got, okG, want, okW)
			}
		}
		check(avail1)
		for ; len(edits) >= 3; edits = edits[3:] {
			b := tasks[int(edits[1])%len(tasks)].Block
			k := topology.NodeID(int(edits[2]) % n)
			switch edits[0] % 4 {
			case 0:
				// A node already holding a replica is rejected unchanged.
				cm.store.SetReplicas(b, append(slices.Clone(cm.store.Replicas(b)), k))
			case 1:
				cm.store.RemoveNodeReplicas(k)
			case 2:
				cm.store.SetReplicas(b, nil)
			case 3:
				cm.ForgetMaps([]*job.Job{j, small}[edits[1]%2])
			}
		}
		check(avail2)
		check(avail1)
	})
}
