package cluster

import (
	"reflect"
	"testing"

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
	if n.FreeMapSlots() != 2 || n.FreeReduceSlots() != 1 {
		t.Fatal("fresh node has wrong free counts")
	}
	if err := n.AcquireMap(); err != nil {
		t.Fatal(err)
	}
	if err := n.AcquireMap(); err != nil {
		t.Fatal(err)
	}
	if err := n.AcquireMap(); err == nil {
		t.Fatal("over-acquired map slot")
	}
	if n.UsedMapSlots() != 2 {
		t.Fatalf("UsedMapSlots = %d", n.UsedMapSlots())
	}
	n.ReleaseMap()
	if n.FreeMapSlots() != 1 {
		t.Fatal("release did not free slot")
	}
	if err := n.AcquireReduce(); err != nil {
		t.Fatal(err)
	}
	if err := n.AcquireReduce(); err == nil {
		t.Fatal("over-acquired reduce slot")
	}
	n.ReleaseReduce()
	if n.UsedReduceSlots() != 0 {
		t.Fatal("reduce slot not released")
	}
}

func TestReleaseUnheldPanics(t *testing.T) {
	s, _ := New(1, 1, 1)
	n := s.Node(0)
	for _, f := range []func(){n.ReleaseMap, n.ReleaseReduce} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("releasing unheld slot did not panic")
				}
			}()
			f()
		}()
	}
}

func TestAvailNodeSets(t *testing.T) {
	s, _ := New(3, 1, 1)
	if got := s.AvailMapNodes(); len(got) != 3 {
		t.Fatalf("AvailMapNodes = %v", got)
	}
	if err := s.Node(1).AcquireMap(); err != nil {
		t.Fatal(err)
	}
	got := s.AvailMapNodes()
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("AvailMapNodes after acquire = %v", got)
	}
	if err := s.Node(0).AcquireReduce(); err != nil {
		t.Fatal(err)
	}
	if err := s.Node(2).AcquireReduce(); err != nil {
		t.Fatal(err)
	}
	if got := s.AvailReduceNodes(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("AvailReduceNodes = %v", got)
	}
	um, ur := s.UsedSlots()
	if um != 1 || ur != 2 {
		t.Fatalf("UsedSlots = (%d,%d)", um, ur)
	}
}

func TestResourceModeAccounting(t *testing.T) {
	s, err := New(1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := s.Node(0)
	cap := Resources{MemMB: 8192, VCores: 8}
	mapReq := Resources{MemMB: 2048, VCores: 2}
	redReq := Resources{MemMB: 4096, VCores: 4}
	if err := n.EnableResources(cap, mapReq, redReq); err != nil {
		t.Fatal(err)
	}
	if !n.ResourceMode() {
		t.Fatal("resource mode not enabled")
	}
	if n.FreeMapSlots() != 4 || n.FreeReduceSlots() != 2 {
		t.Fatalf("idle headroom = %d/%d, want 4/2", n.FreeMapSlots(), n.FreeReduceSlots())
	}
	// One reduce container consumes half the node: only 2 maps fit beside it.
	if err := n.AcquireReduce(); err != nil {
		t.Fatal(err)
	}
	if n.FreeMapSlots() != 2 {
		t.Fatalf("map headroom beside a reduce = %d, want 2", n.FreeMapSlots())
	}
	if err := n.AcquireMap(); err != nil {
		t.Fatal(err)
	}
	if err := n.AcquireMap(); err != nil {
		t.Fatal(err)
	}
	if n.FreeMapSlots() != 0 || n.FreeReduceSlots() != 0 {
		t.Fatal("node should be full")
	}
	if err := n.AcquireMap(); err == nil {
		t.Fatal("over-committed a full node")
	}
	// Releases restore the full capacity.
	n.ReleaseMap()
	n.ReleaseMap()
	n.ReleaseReduce()
	if n.Used() != (Resources{}) {
		t.Fatalf("resources leaked: %+v", n.Used())
	}
	if n.FreeMapSlots() != 4 {
		t.Fatal("capacity not restored")
	}
}

func TestResourceModeFungibility(t *testing.T) {
	// The YARN benefit: the whole node can go to maps when no reduces run,
	// unlike the fixed 4+2 split.
	s, _ := New(1, 4, 2)
	n := s.Node(0)
	if err := n.EnableResources(Resources{MemMB: 16384, VCores: 16},
		Resources{MemMB: 2048, VCores: 2}, Resources{MemMB: 4096, VCores: 4}); err != nil {
		t.Fatal(err)
	}
	launched := 0
	for n.FreeMapSlots() > 0 {
		if err := n.AcquireMap(); err != nil {
			t.Fatal(err)
		}
		launched++
	}
	if launched != 8 {
		t.Fatalf("container mode ran %d maps on an idle node, want 8", launched)
	}
}

func TestResourceModeValidation(t *testing.T) {
	s, _ := New(1, 1, 1)
	n := s.Node(0)
	if err := n.EnableResources(Resources{}, Resources{MemMB: 1, VCores: 1}, Resources{MemMB: 1, VCores: 1}); err == nil {
		t.Error("zero capacity accepted")
	}
	if err := n.EnableResources(Resources{MemMB: 1, VCores: 1}, Resources{}, Resources{MemMB: 1, VCores: 1}); err == nil {
		t.Error("zero map request accepted")
	}
	if err := n.AcquireMap(); err != nil {
		t.Fatal(err)
	}
	if err := n.EnableResources(Resources{MemMB: 8, VCores: 8}, Resources{MemMB: 1, VCores: 1}, Resources{MemMB: 1, VCores: 1}); err == nil {
		t.Error("mode switch with running tasks accepted")
	}
	n.ReleaseMap()
	// Cluster-wide enable.
	s2, _ := New(3, 1, 1)
	if err := s2.EnableResources(Resources{MemMB: 4096, VCores: 4},
		Resources{MemMB: 1024, VCores: 1}, Resources{MemMB: 2048, VCores: 2}); err != nil {
		t.Fatal(err)
	}
	m, r := s2.TotalSlots()
	if m != 12 || r != 6 {
		t.Fatalf("cluster container capacity = %d/%d, want 12/6", m, r)
	}
}

// TestAvailCountsTrackChurn drives every availability-affecting mutation
// and cross-checks the incrementally maintained per-class counts against
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
	classes := top.Classes()
	s, err := New(8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.SetClasses(classes)

	check := func(step string) {
		t.Helper()
		for pass, get := range map[string]func() ([]topology.NodeID, []int, uint64){
			"map": s.AvailMap, "reduce": s.AvailReduce,
		} {
			nodes, counts, _ := get()
			want := make([]int, classes.Num())
			for _, n := range nodes {
				want[classes.Of(n)]++
			}
			if !reflect.DeepEqual(counts, want) {
				t.Fatalf("%s after %s: incremental counts %v, rescan %v (avail %v)",
					pass, step, counts, want, nodes)
			}
		}
	}
	mapVersion := func() uint64 { _, _, v := s.AvailMap(); return v }

	check("init")
	v0 := mapVersion()
	if mapVersion() != v0 {
		t.Fatal("version moved without a mutation")
	}

	// Fill node 3's map slots: leaves the map set at the second acquire.
	n3 := s.Node(3)
	if err := n3.AcquireMap(); err != nil {
		t.Fatal(err)
	}
	check("first acquire")
	if err := n3.AcquireMap(); err != nil {
		t.Fatal(err)
	}
	check("second acquire")
	if mapVersion() == v0 {
		t.Fatal("version unchanged though node 3 left the map set")
	}

	// Offline, blacklist, resource-mode, and release churn across both
	// racks.
	s.Node(5).SetOffline(true)
	check("offline 5")
	s.Node(0).SetBlacklisted(true)
	check("blacklist 0")
	if err := s.Node(6).EnableResources(Resources{VCores: 4, MemMB: 8192},
		Resources{VCores: 1, MemMB: 2048}, Resources{VCores: 1, MemMB: 4096}); err != nil {
		t.Fatal(err)
	}
	check("resource mode 6")
	n3.ReleaseMap()
	check("release")
	s.Node(5).SetOffline(false)
	check("online 5")
	s.Node(0).SetBlacklisted(false)
	check("unblacklist 0")

	// Reduce-side churn too.
	if err := s.Node(7).AcquireReduce(); err != nil {
		t.Fatal(err)
	}
	check("acquire reduce 7")
	s.Node(7).ReleaseReduce()
	check("release reduce 7")

	// The counts are published once per version: at an unchanged version
	// every read returns the same slice and allocates nothing.
	for pass, get := range map[string]func() ([]topology.NodeID, []int, uint64){
		"map": s.AvailMap, "reduce": s.AvailReduce,
	} {
		_, first, _ := get()
		_, second, _ := get()
		if &first[0] != &second[0] {
			t.Fatalf("%s: counts republished at an unchanged version", pass)
		}
		if allocs := testing.AllocsPerRun(100, func() { get() }); allocs != 0 {
			t.Fatalf("%s: %v allocs per read at an unchanged version, want 0", pass, allocs)
		}
	}

	// A slice handed out before a flip keeps its contents after it.
	_, before, _ := s.AvailMap()
	held := append([]int(nil), before...)
	if err := n3.AcquireMap(); err != nil { // its last free slot: node 3 leaves
		t.Fatal(err)
	}
	check("reacquire 3")
	if !reflect.DeepEqual(before, held) {
		t.Fatalf("published counts changed under a flip: %v, were %v", before, held)
	}
	if _, after, _ := s.AvailMap(); reflect.DeepEqual(after, held) {
		t.Fatalf("counts %v unchanged though node 3 left the map set", after)
	}

	// SetClasses republishes without a membership change: clearing the
	// classes drops the counts entirely, reinstalling them recounts.
	s.SetClasses(nil)
	for pass, get := range map[string]func() ([]topology.NodeID, []int, uint64){
		"map": s.AvailMap, "reduce": s.AvailReduce,
	} {
		if _, counts, _ := get(); counts != nil {
			t.Fatalf("%s counts %v after clearing classes, want nil", pass, counts)
		}
	}
	s.SetClasses(classes)
	check("reinstall classes")
}
