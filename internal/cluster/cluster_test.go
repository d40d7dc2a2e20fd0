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

func TestAvailNodeSets(t *testing.T) {
	s, _ := New(3, 1, 1)
	if got := s.AvailNodes(job.MapKind); len(got) != 3 {
		t.Fatalf("AvailNodes(map) = %v", got)
	}
	if err := s.Node(1).AcquireSlot(job.MapKind); err != nil {
		t.Fatal(err)
	}
	got := s.AvailNodes(job.MapKind)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("AvailNodes(map) after acquire = %v", got)
	}
	if err := s.Node(0).AcquireSlot(job.ReduceKind); err != nil {
		t.Fatal(err)
	}
	if err := s.Node(2).AcquireSlot(job.ReduceKind); err != nil {
		t.Fatal(err)
	}
	if got := s.AvailNodes(job.ReduceKind); len(got) != 1 || got[0] != 1 {
		t.Fatalf("AvailNodes(reduce) = %v", got)
	}
	um, ur := s.UsedSlots()
	if um != 1 || ur != 2 {
		t.Fatalf("UsedSlots = (%d,%d)", um, ur)
	}
}

// TestAvailCountsTrackChurn drives every availability-affecting mutation
// and cross-checks the incrementally maintained per-rack counts against
// a from-scratch rescan after each step, plus the version contract: the
// version changes whenever membership does and holds still otherwise.
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
	s.CountRacks(top)

	check := func(step string) {
		t.Helper()
		for k := job.MapKind; k <= job.ReduceKind; k++ {
			nodes, counts, _ := s.Avail(k)
			want := make([]int, top.Racks())
			for _, n := range nodes {
				want[top.Rack(n)]++
			}
			if !reflect.DeepEqual(counts, want) {
				t.Fatalf("%s after %s: incremental counts %v, rescan %v (avail %v)",
					k, step, counts, want, nodes)
			}
		}
	}
	mapVersion := func() uint64 { _, _, v := s.Avail(job.MapKind); return v }

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

	// The counts are published once per version: at an unchanged version
	// every read returns the same slice and allocates nothing.
	for k := job.MapKind; k <= job.ReduceKind; k++ {
		_, first, _ := s.Avail(k)
		_, second, _ := s.Avail(k)
		if &first[0] != &second[0] {
			t.Fatalf("%s: counts republished at an unchanged version", k)
		}
		if allocs := testing.AllocsPerRun(100, func() { s.Avail(k) }); allocs != 0 {
			t.Fatalf("%s: %v allocs per read at an unchanged version, want 0", k, allocs)
		}
	}

	// A slice handed out before a flip keeps its contents after it.
	_, before, _ := s.Avail(job.MapKind)
	held := append([]int(nil), before...)
	if err := n3.AcquireSlot(job.MapKind); err != nil { // its last free slot: node 3 leaves
		t.Fatal(err)
	}
	check("reacquire 3")
	if !reflect.DeepEqual(before, held) {
		t.Fatalf("published counts changed under a flip: %v, were %v", before, held)
	}
	if _, after, _ := s.Avail(job.MapKind); reflect.DeepEqual(after, held) {
		t.Fatalf("counts %v unchanged though node 3 left the map set", after)
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
