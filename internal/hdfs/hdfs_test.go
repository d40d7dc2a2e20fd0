package hdfs

import (
	"math"
	"testing"
	"testing/quick"

	"mapsched/internal/sim"
	"mapsched/internal/topology"
)

// UsageImbalance returns max/mean node usage; 1.0 is perfectly balanced.
// Returns 0 for an empty store.
func (s *Store) UsageImbalance() float64 {
	var sum, max float64
	for _, u := range s.usage {
		sum += u
		if u > max {
			max = u
		}
	}
	if sum == 0 {
		return 0
	}
	mean := sum / float64(len(s.usage))
	return max / mean
}

// Nearest returns the replica of id closest to from under the network's
// distance matrix, together with the distance (min over L_lj=1 of h_il).
func (s *Store) Nearest(id BlockID, from topology.NodeID) (topology.NodeID, float64) {
	best := topology.NodeID(-1)
	bestD := math.Inf(1)
	for _, r := range s.blocks[id].Replicas {
		d := s.net.Distance(from, r)
		if d < bestD {
			bestD = d
			best = r
		}
	}
	return best, bestD
}

func testNet(t *testing.T, racks, perRack int) *topology.Cluster {
	t.Helper()
	spec := topology.DefaultSpec()
	spec.Racks = racks
	spec.NodesPerRack = perRack
	c, err := topology.NewCluster(sim.NewEngine(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAddFileBlockCount(t *testing.T) {
	net := testNet(t, 1, 10)
	s := NewStore(net, sim.NewRNG(1))
	const blockSize = 128e6
	cases := []struct {
		bytes float64
		want  int
	}{
		{128e6, 1},
		{129e6, 2},
		{1280e6, 10},
		{1e6, 1},
		{127e6, 1},
		{383e6, 3},
	}
	for _, c := range cases {
		ids, err := s.AddFile(c.bytes, blockSize, 2, RackAware{})
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != c.want {
			t.Errorf("AddFile(%v): %d blocks, want %d", c.bytes, len(ids), c.want)
		}
		var total float64
		for _, id := range ids {
			total += s.Size(id)
			if s.Size(id) > blockSize {
				t.Errorf("block %d size %v exceeds block size", id, s.Size(id))
			}
		}
		if math.Abs(total-c.bytes) > 1 {
			t.Errorf("AddFile(%v): blocks sum to %v", c.bytes, total)
		}
	}
}

func TestAddFileValidation(t *testing.T) {
	net := testNet(t, 1, 4)
	s := NewStore(net, sim.NewRNG(1))
	if _, err := s.AddFile(0, 128e6, 2, nil); err == nil {
		t.Error("zero-size file accepted")
	}
	if _, err := s.AddFile(1e6, 0, 2, nil); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := s.AddFile(1e6, 128e6, 0, nil); err == nil {
		t.Error("zero replication accepted")
	}
}

func TestReplicationClampedToClusterSize(t *testing.T) {
	net := testNet(t, 1, 3)
	s := NewStore(net, sim.NewRNG(1))
	ids, err := s.AddFile(1e6, 128e6, 10, Subset{K: net.Size()})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Replicas(ids[0])); got != 3 {
		t.Fatalf("replicas = %d, want clamped 3", got)
	}
}

func TestReplicasDistinct(t *testing.T) {
	net := testNet(t, 2, 5)
	s := NewStore(net, sim.NewRNG(42))
	for _, pol := range []PlacementPolicy{RackAware{}, Subset{K: net.Size()}, Subset{K: 4}} {
		for i := 0; i < 50; i++ {
			id, err := s.AddBlock(128e6, 3, pol)
			if err != nil {
				t.Fatalf("%s: %v", pol.Name(), err)
			}
			reps := s.Replicas(id)
			seen := map[topology.NodeID]bool{}
			for _, r := range reps {
				if seen[r] {
					t.Fatalf("%s: duplicate replica on node %d", pol.Name(), r)
				}
				seen[r] = true
			}
		}
	}
}

func TestRackAwareSpansRacks(t *testing.T) {
	net := testNet(t, 3, 5)
	s := NewStore(net, sim.NewRNG(7))
	for i := 0; i < 100; i++ {
		id, err := s.AddBlock(128e6, 2, RackAware{})
		if err != nil {
			t.Fatal(err)
		}
		reps := s.Replicas(id)
		if net.Rack(reps[0]) == net.Rack(reps[1]) {
			t.Fatalf("block %d: both replicas in rack %d", id, net.Rack(reps[0]))
		}
	}
}

func TestRackAwareSingleRackStillWorks(t *testing.T) {
	net := testNet(t, 1, 5)
	s := NewStore(net, sim.NewRNG(7))
	id, err := s.AddBlock(128e6, 3, RackAware{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Replicas(id)) != 3 {
		t.Fatalf("replicas = %d, want 3", len(s.Replicas(id)))
	}
}

func TestSubsetConfinesReplicas(t *testing.T) {
	net := testNet(t, 1, 20)
	s := NewStore(net, sim.NewRNG(9))
	for i := 0; i < 50; i++ {
		id, err := s.AddBlock(64e6, 2, Subset{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range s.Replicas(id) {
			if int(r) >= 5 {
				t.Fatalf("subset policy placed replica on node %d (limit 5)", r)
			}
		}
	}
}

func TestSubsetClampsKBelowRepl(t *testing.T) {
	net := testNet(t, 1, 10)
	s := NewStore(net, sim.NewRNG(9))
	id, err := s.AddBlock(64e6, 3, Subset{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Replicas(id)) != 3 {
		t.Fatalf("replicas = %d, want 3 (K clamped up to repl)", len(s.Replicas(id)))
	}
}

func TestSubsetOfWholeClusterIsUniform(t *testing.T) {
	net := testNet(t, 2, 5)
	s := NewStore(net, sim.NewRNG(3))
	ref := sim.NewRNG(3)
	used := make([]bool, net.Size())
	for i := 0; i < 50; i++ {
		id, err := s.AddBlock(64e6, 3, Subset{K: net.Size()})
		if err != nil {
			t.Fatal(err)
		}
		// Each block takes the head of one uniform permutation of all nodes.
		perm := ref.Perm(net.Size())
		for k, r := range s.Replicas(id) {
			if int(r) != perm[k] {
				t.Fatalf("block %d replica %d on node %d, want %d", i, k, r, perm[k])
			}
			used[r] = true
		}
	}
	for n, ok := range used {
		if !ok {
			t.Fatalf("node %d never received a replica", n)
		}
	}
}

func TestHasReplicaAndNearest(t *testing.T) {
	net := testNet(t, 2, 4) // nodes 0-3 rack 0, 4-7 rack 1
	s := NewStore(net, sim.NewRNG(3))
	// Deterministic placement via a custom policy.
	id, err := s.AddBlock(128e6, 2, fixedPolicy{nodes: []topology.NodeID{1, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasReplica(id, 1) || !s.HasReplica(id, 5) {
		t.Fatal("HasReplica false for replica nodes")
	}
	if s.HasReplica(id, 0) {
		t.Fatal("HasReplica true for non-replica node")
	}
	// From node 1 itself: distance 0.
	if n, d := s.Nearest(id, 1); n != 1 || d != 0 {
		t.Fatalf("Nearest from replica = (%d, %v), want (1, 0)", n, d)
	}
	// From node 0 (rack 0): node 1 is same-rack (2), node 5 cross-rack (4).
	if n, d := s.Nearest(id, 0); n != 1 || d != 2 {
		t.Fatalf("Nearest from 0 = (%d, %v), want (1, 2)", n, d)
	}
	// From node 6 (rack 1): node 5 same-rack.
	if n, d := s.Nearest(id, 6); n != 5 || d != 2 {
		t.Fatalf("Nearest from 6 = (%d, %v), want (5, 2)", n, d)
	}
}

type fixedPolicy struct{ nodes []topology.NodeID }

func (p fixedPolicy) Name() string { return "fixed" }
func (p fixedPolicy) Place(topology.Network, *sim.RNG, int) []topology.NodeID {
	return p.nodes
}

func TestUsageAccounting(t *testing.T) {
	net := testNet(t, 1, 4)
	s := NewStore(net, sim.NewRNG(3))
	if _, err := s.AddBlock(100, 2, fixedPolicy{nodes: []topology.NodeID{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddBlock(50, 2, fixedPolicy{nodes: []topology.NodeID{0, 2}}); err != nil {
		t.Fatal(err)
	}
	if s.Usage(0) != 150 || s.Usage(1) != 100 || s.Usage(2) != 50 || s.Usage(3) != 0 {
		t.Fatalf("usage = %v %v %v %v", s.Usage(0), s.Usage(1), s.Usage(2), s.Usage(3))
	}
	// imbalance = max/mean = 150 / (300/4) = 2
	if got := s.UsageImbalance(); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("UsageImbalance = %v, want 2", got)
	}
	// Losing every replica on a node leaves its usage exactly zero, even
	// where subtracting the sizes back out would round: 0.1+0.2-0.1-0.2
	// is 5.55e-17 in float64.
	for _, size := range []float64{0.1, 0.2} {
		if _, err := s.AddBlock(size, 1, fixedPolicy{nodes: []topology.NodeID{3}}); err != nil {
			t.Fatal(err)
		}
	}
	if lost := s.RemoveNodeReplicas(3); lost != 2 || s.Usage(3) != 0 {
		t.Fatalf("RemoveNodeReplicas(3) = %d, usage %v; want 2, 0", lost, s.Usage(3))
	}
}

func TestUsageImbalanceEmpty(t *testing.T) {
	net := testNet(t, 1, 4)
	s := NewStore(net, sim.NewRNG(3))
	if got := s.UsageImbalance(); got != 0 {
		t.Fatalf("empty store imbalance = %v, want 0", got)
	}
}

func TestInvalidPoliciesRejected(t *testing.T) {
	net := testNet(t, 1, 4)
	s := NewStore(net, sim.NewRNG(3))
	if _, err := s.AddBlock(1, 2, fixedPolicy{nodes: []topology.NodeID{0, 0}}); err == nil {
		t.Error("duplicate replica accepted")
	}
	if _, err := s.AddBlock(1, 2, fixedPolicy{nodes: []topology.NodeID{0, 99}}); err == nil {
		t.Error("out-of-range replica accepted")
	}
	if _, err := s.AddBlock(1, 2, fixedPolicy{nodes: []topology.NodeID{0}}); err == nil {
		t.Error("short replica list accepted")
	}
}

func TestPlacementPropertyDistinctAndInRange(t *testing.T) {
	// Property: for any cluster shape and replication factor, every policy
	// returns distinct, in-range nodes.
	f := func(racksRaw, perRackRaw, replRaw uint8, seed int64) bool {
		racks := 1 + int(racksRaw)%4
		perRack := 1 + int(perRackRaw)%8
		spec := topology.DefaultSpec()
		spec.Racks = racks
		spec.NodesPerRack = perRack
		net, err := topology.NewCluster(sim.NewEngine(), spec)
		if err != nil {
			return false
		}
		repl := 1 + int(replRaw)%3
		if repl > net.Size() {
			repl = net.Size()
		}
		rng := sim.NewRNG(seed)
		for _, pol := range []PlacementPolicy{RackAware{}, Subset{K: net.Size()}, Subset{K: 3}} {
			got := pol.Place(net, rng, repl)
			if len(got) != repl {
				return false
			}
			seen := map[topology.NodeID]bool{}
			for _, n := range got {
				if int(n) < 0 || int(n) >= net.Size() || seen[n] {
					return false
				}
				seen[n] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNearestPropertyNeverFartherThanAnyReplica(t *testing.T) {
	net := testNet(t, 3, 4)
	s := NewStore(net, sim.NewRNG(11))
	for i := 0; i < 30; i++ {
		id, err := s.AddBlock(1e6, 2, RackAware{})
		if err != nil {
			t.Fatal(err)
		}
		for from := 0; from < net.Size(); from++ {
			_, d := s.Nearest(id, topology.NodeID(from))
			for _, r := range s.Replicas(id) {
				if net.Distance(topology.NodeID(from), r) < d {
					t.Fatalf("Nearest missed a closer replica (block %d from %d)", id, from)
				}
			}
		}
	}
}
