package cluster

import (
	"reflect"
	"testing"

	"mapsched/internal/job"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4, 2); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := New(3, -1, 2); err == nil {
		t.Error("negative slots accepted")
	}
	s, err := New(3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 3 {
		t.Fatalf("Size = %d", s.Size())
	}
	m, r := s.TotalSlots()
	if m != 12 || r != 6 {
		t.Fatalf("TotalSlots = (%d,%d)", m, r)
	}
}

func TestSlotLifecycle(t *testing.T) {
	s, err := New(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := s.Node(0)
	if n.FreeSlots(job.MapKind) != 2 || n.FreeSlots(job.ReduceKind) != 1 {
		t.Fatal("fresh node has wrong free counts")
	}
	if err := n.AcquireSlot(job.MapKind); err != nil {
		t.Fatal(err)
	}
	if err := n.AcquireSlot(job.MapKind); err != nil {
		t.Fatal(err)
	}
	if err := n.AcquireSlot(job.MapKind); err == nil {
		t.Fatal("over-acquired map slot")
	}
	if n.UsedSlots(job.MapKind) != 2 {
		t.Fatalf("UsedSlots(map) = %d", n.UsedSlots(job.MapKind))
	}
	n.ReleaseSlot(job.MapKind)
	if n.FreeSlots(job.MapKind) != 1 {
		t.Fatal("release did not free slot")
	}
	if err := n.AcquireSlot(job.ReduceKind); err != nil {
		t.Fatal(err)
	}
	if err := n.AcquireSlot(job.ReduceKind); err == nil {
		t.Fatal("over-acquired reduce slot")
	}
	n.ReleaseSlot(job.ReduceKind)
	if n.UsedSlots(job.ReduceKind) != 0 {
		t.Fatal("reduce slot not released")
	}
}

func TestReleaseUnheldPanics(t *testing.T) {
	s, _ := New(1, 1, 1)
	n := s.Node(0)
	for k := job.MapKind; k <= job.ReduceKind; k++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("releasing unheld slot did not panic")
				}
			}()
			n.ReleaseSlot(k)
		}()
	}
}

// members lists a set's nodes in ascending order.
func members(set topology.NodeSet) []topology.NodeID {
	var out []topology.NodeID
	set.Each(func(k topology.NodeID) { out = append(out, k) })
	return out
}

func TestAvailNodeSets(t *testing.T) {
	s, _ := New(3, 1, 1)
	avail := func(k job.TaskKind) []topology.NodeID { set, _ := s.Avail(k); return members(set) }
	if got := avail(job.MapKind); len(got) != 3 {
		t.Fatalf("Avail(map) = %v", got)
	}
	if err := s.Node(1).AcquireSlot(job.MapKind); err != nil {
		t.Fatal(err)
	}
	got := avail(job.MapKind)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Avail(map) after acquire = %v", got)
	}
	if err := s.Node(0).AcquireSlot(job.ReduceKind); err != nil {
		t.Fatal(err)
	}
	if err := s.Node(2).AcquireSlot(job.ReduceKind); err != nil {
		t.Fatal(err)
	}
	if got := avail(job.ReduceKind); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Avail(reduce) = %v", got)
	}
	um, ur := s.UsedSlots()
	if um != 1 || ur != 2 {
		t.Fatalf("UsedSlots = (%d,%d)", um, ur)
	}
}

// TestAcquireSlotRejectsUnavailableNode: an offline or blacklisted node
// reports no free slot, so acquiring one fails and changes nothing.
func TestAcquireSlotRejectsUnavailableNode(t *testing.T) {
	s, _ := New(2, 2, 1)
	n := s.Node(1)
	for _, tc := range []struct {
		name string
		set  func(bool)
	}{{"offline", n.SetOffline}, {"blacklisted", n.SetBlacklisted}} {
		tc.set(true)
		for k := job.MapKind; k <= job.ReduceKind; k++ {
			if err := n.AcquireSlot(k); err == nil {
				t.Fatalf("%s node acquired a %s slot", tc.name, k)
			}
			if n.UsedSlots(k) != 0 {
				t.Fatalf("%s node: %d used %s slots after a rejected acquire", tc.name, n.UsedSlots(k), k)
			}
		}
		if um, ur := s.UsedSlots(); um != 0 || ur != 0 {
			t.Fatalf("%s node: UsedSlots = (%d,%d) after rejected acquires", tc.name, um, ur)
		}
		tc.set(false)
		if err := n.AcquireSlot(job.MapKind); err != nil {
			t.Fatalf("node no longer %s: %v", tc.name, err)
		}
		n.ReleaseSlot(job.MapKind)
	}
}

// TestAvailCountsTrackChurn drives every availability-affecting mutation
// and cross-checks the availability bitmaps — membership, Len and the
// per-rack RackCounts — against a from-scratch rescan after each
// step, plus the version contract: the version changes whenever
// membership does and holds still otherwise.
func TestAvailCountsTrackChurn(t *testing.T) {
	spec := topology.DefaultSpec()
	spec.Racks = 2
	spec.NodesPerRack = 4
	top, err := topology.NewCluster(sim.NewEngine(), spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}

	check := func(step string) {
		t.Helper()
		for k := job.MapKind; k <= job.ReduceKind; k++ {
			set, _ := s.Avail(k)
			free, counts := 0, make([]int, top.Racks())
			for i := 0; i < s.Size(); i++ {
				id := topology.NodeID(i)
				in := s.Node(id).FreeSlots(k) > 0
				if set.Has(id) != in {
					t.Fatalf("%s after %s: node %d in set = %v, free = %v", k, step, i, !in, in)
				}
				if in {
					free++
					counts[top.Rack(id)]++
				}
			}
			if set.Len() != free {
				t.Fatalf("%s after %s: Len = %d, rescan %d", k, step, set.Len(), free)
			}
			got := make([]int, top.Racks())
			top.RackCounts(set, got)
			if !reflect.DeepEqual(got, counts) {
				t.Fatalf("%s after %s: rack counts %v, rescan %v", k, step, got, counts)
			}
		}
	}
	mapVersion := func() uint64 { _, v := s.Avail(job.MapKind); return v }

	check("init")
	v0 := mapVersion()
	if mapVersion() != v0 {
		t.Fatal("version moved without a mutation")
	}

	// Fill node 3's map slots: leaves the map set at the second acquire.
	n3 := s.Node(3)
	if err := n3.AcquireSlot(job.MapKind); err != nil {
		t.Fatal(err)
	}
	check("first acquire")
	if mapVersion() != v0 {
		t.Fatal("version moved though node 3 still has a free map slot")
	}
	if err := n3.AcquireSlot(job.MapKind); err != nil {
		t.Fatal(err)
	}
	check("second acquire")
	if mapVersion() == v0 {
		t.Fatal("version unchanged though node 3 left the map set")
	}

	// Offline, blacklist and release churn across both racks.
	s.Node(5).SetOffline(true)
	check("offline 5")
	s.Node(0).SetBlacklisted(true)
	check("blacklist 0")
	n3.ReleaseSlot(job.MapKind)
	check("release")
	s.Node(5).SetOffline(false)
	check("online 5")
	s.Node(0).SetBlacklisted(false)
	check("unblacklist 0")

	// Reduce-side churn too.
	if err := s.Node(7).AcquireSlot(job.ReduceKind); err != nil {
		t.Fatal(err)
	}
	check("acquire reduce 7")
	s.Node(7).ReleaseSlot(job.ReduceKind)
	check("release reduce 7")

	// Reading a set allocates nothing.
	for k := job.MapKind; k <= job.ReduceKind; k++ {
		if allocs := testing.AllocsPerRun(100, func() { s.Avail(k) }); allocs != 0 {
			t.Fatalf("%s: %v allocs per read, want 0", k, allocs)
		}
	}

	// A set handed out before a flip keeps its members after it.
	before, _ := s.Avail(job.MapKind)
	held := members(before)
	if err := n3.AcquireSlot(job.MapKind); err != nil { // its last free slot: node 3 leaves
		t.Fatal(err)
	}
	check("reacquire 3")
	if got := members(before); !reflect.DeepEqual(got, held) || before.Len() != len(held) {
		t.Fatalf("held set changed under a flip: %v, was %v", got, held)
	}
	if after, _ := s.Avail(job.MapKind); after.Has(3) || after.Len() != len(held)-1 {
		t.Fatalf("set %v still holds node 3, which left the map set", members(after))
	}
}

// TestSlotTotalsMatchNodeSums drives random acquires (some failing),
// releases, and offline and blacklist flips across a cluster: after every
// step UsedSlots and TotalSlots must equal a per-node sum.
func TestSlotTotalsMatchNodeSums(t *testing.T) {
	s, err := New(6, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(11)
	for step := 1; step <= 3000; step++ {
		n := s.Node(topology.NodeID(rng.Intn(s.Size())))
		switch rng.Intn(6) {
		case 0:
			_ = n.AcquireSlot(job.MapKind) // may be full, offline or blacklisted
		case 1:
			_ = n.AcquireSlot(job.ReduceKind)
		case 2:
			if n.UsedSlots(job.MapKind) > 0 {
				n.ReleaseSlot(job.MapKind)
			}
		case 3:
			if n.UsedSlots(job.ReduceKind) > 0 {
				n.ReleaseSlot(job.ReduceKind)
			}
		case 4:
			n.SetOffline(!n.Offline())
		case 5:
			n.SetBlacklisted(!n.Blacklisted())
		}
		var um, ur, tm, tr int
		for id := 0; id < s.Size(); id++ {
			nd := s.Node(topology.NodeID(id))
			um += nd.UsedSlots(job.MapKind)
			ur += nd.UsedSlots(job.ReduceKind)
			tm += nd.Slots[job.MapKind]
			tr += nd.Slots[job.ReduceKind]
		}
		if gm, gr := s.UsedSlots(); gm != um || gr != ur {
			t.Fatalf("step %d: UsedSlots = (%d,%d), node sum (%d,%d)", step, gm, gr, um, ur)
		}
		if gm, gr := s.TotalSlots(); gm != tm || gr != tr {
			t.Fatalf("step %d: TotalSlots = (%d,%d), node sum (%d,%d)", step, gm, gr, tm, tr)
		}
	}
}
