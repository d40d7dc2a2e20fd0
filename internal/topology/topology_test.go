package topology

import (
	"math"
	"testing"

	"mapsched/internal/sim"
)

func mustCluster(t *testing.T, eng *sim.Engine, spec Spec) *Cluster {
	t.Helper()
	c, err := NewCluster(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDefaultSpecShape(t *testing.T) {
	eng := sim.NewEngine()
	c := mustCluster(t, eng, DefaultSpec())
	if c.Size() != 60 {
		t.Fatalf("Size() = %d, want 60", c.Size())
	}
	for i := 0; i < c.Size(); i++ {
		if c.Rack(NodeID(i)) != 0 {
			t.Fatalf("node %d in rack %d, want 0 (single-rack spec)", i, c.Rack(NodeID(i)))
		}
	}
}

func TestClusterDistances(t *testing.T) {
	eng := sim.NewEngine()
	spec := DefaultSpec()
	spec.Racks = 3
	spec.NodesPerRack = 4
	c := mustCluster(t, eng, spec)

	if d := c.Distance(0, 0); d != 0 {
		t.Fatalf("Distance(0,0) = %v, want 0", d)
	}
	// The paper's hop counts: 2 within a rack, 4 across racks.
	if d := c.Distance(0, 3); d != 2 {
		t.Fatalf("same-rack distance = %v, want 2", d)
	}
	if d := c.Distance(0, 4); d != 4 {
		t.Fatalf("cross-rack distance = %v, want 4", d)
	}
	if c.Rack(3) != 0 || c.Rack(4) != 1 || c.Rack(11) != 2 {
		t.Fatalf("rack assignment wrong: %d %d %d", c.Rack(3), c.Rack(4), c.Rack(11))
	}
	if c.Racks() != 3 {
		t.Fatalf("Racks() = %d, want 3", c.Racks())
	}
	// Symmetry, and every off-diagonal entry is its racks' distance.
	for a := 0; a < c.Size(); a++ {
		for b := 0; b < c.Size(); b++ {
			d := c.Distance(NodeID(a), NodeID(b))
			if d != c.Distance(NodeID(b), NodeID(a)) {
				t.Fatalf("distance not symmetric for (%d,%d)", a, b)
			}
			if a != b && d != c.RackDistance(c.Rack(NodeID(a)), c.Rack(NodeID(b))) {
				t.Fatalf("Distance(%d,%d) = %v, not its racks' distance", a, b, d)
			}
		}
	}
}

func TestRackDistanceHopCounts(t *testing.T) {
	spec := DefaultSpec()
	spec.Racks = 3
	spec.NodesPerRack = 2
	c := mustCluster(t, sim.NewEngine(), spec)
	for r := 0; r < c.Racks(); r++ {
		for s := 0; s < c.Racks(); s++ {
			want := 4.0
			if r == s {
				want = 2
			}
			if d := c.RackDistance(r, s); d != want {
				t.Fatalf("RackDistance(%d,%d) = %v, want %v", r, s, d, want)
			}
		}
	}
}

// singleRack returns a four-host, one-rack cluster on DefaultSpec's links.
func singleRack(t *testing.T, eng *sim.Engine) *Cluster {
	t.Helper()
	spec := DefaultSpec()
	spec.Racks = 1
	spec.NodesPerRack = 4
	return mustCluster(t, eng, spec)
}

func TestLoneFlowGetsFullCapacity(t *testing.T) {
	eng := sim.NewEngine()
	c := singleRack(t, eng)
	var at sim.Time
	c.Transfer(0, 1, 125e6, func() { at = eng.Now() })
	if _, err := eng.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(at)-1.0) > 1e-9 {
		t.Fatalf("lone flow finished at %v, want 1.0", at)
	}
}

func TestSharedUplinkSplitsCapacityEvenly(t *testing.T) {
	eng := sim.NewEngine()
	c := singleRack(t, eng)
	// Two flows on one uplink: the fluid network is lossless, so the
	// aggregate keeps the full 125e6 B/s and each flow gets half of it.
	var t1, t2 sim.Time
	c.Transfer(0, 1, 62.5e6, func() { t1 = eng.Now() })
	c.Transfer(0, 2, 62.5e6, func() { t2 = eng.Now() })
	c.Net().Flush()
	if err := c.Net().CheckFeasible(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(t1)-1.0) > 1e-9 || math.Abs(float64(t2)-1.0) > 1e-9 {
		t.Fatalf("flows finished at %v, %v; want 1.0", t1, t2)
	}
}

func TestProspectiveRateSharesCapacity(t *testing.T) {
	c := singleRack(t, sim.NewEngine())
	if idle := c.PathRate(0, 1); idle != 125e6 {
		t.Fatalf("idle prospective rate = %v, want 125e6", idle)
	}
	// One flow already on node 0's uplink: a new one would get
	// capacity/(flows+1).
	c.Transfer(0, 2, 1e12, nil)
	if busy := c.PathRate(0, 1); busy != 125e6/2 {
		t.Fatalf("busy prospective rate = %v, want %v", busy, 125e6/2)
	}
}

func TestSpecValidation(t *testing.T) {
	eng := sim.NewEngine()
	bad := []Spec{
		{Racks: 0, NodesPerRack: 1, HostLinkBps: 1, TorUplinkBps: 1, DiskBps: 1},
		{Racks: 1, NodesPerRack: 0, HostLinkBps: 1, TorUplinkBps: 1, DiskBps: 1},
		{Racks: 1, NodesPerRack: 1, HostLinkBps: 0, TorUplinkBps: 1, DiskBps: 1},
		{Racks: 1, NodesPerRack: 1, HostLinkBps: 1, TorUplinkBps: 0, DiskBps: 1},
		{Racks: 1, NodesPerRack: 1, HostLinkBps: 1, TorUplinkBps: 1, DiskBps: 0},
		// Non-finite capacities: stored link shares must stay finite for
		// PathRate's rack factoring to be exact.
		{Racks: 1, NodesPerRack: 1, HostLinkBps: math.Inf(1), TorUplinkBps: 1, DiskBps: 1},
		{Racks: 1, NodesPerRack: 1, HostLinkBps: 1, TorUplinkBps: math.NaN(), DiskBps: 1},
		{Racks: 1, NodesPerRack: 1, HostLinkBps: 1, TorUplinkBps: 1, DiskBps: math.Inf(1)},
	}
	for i, s := range bad {
		if _, err := NewCluster(eng, s); err == nil {
			t.Errorf("spec %d accepted, want error", i)
		}
	}
}

// TestLinkCapacityClampsToFiniteShares pins the capacity domain the
// stored shares rely on: SetLinkCapacity clamps NaN, -0 and negatives to
// +0 and +Inf to math.MaxFloat64, so every share stays finite and
// non-negative.
func TestLinkCapacityClampsToFiniteShares(t *testing.T) {
	n := NewFlowNet(sim.NewEngine())
	l := n.AddLink(100)
	for _, tc := range []struct{ in, want float64 }{
		{math.NaN(), 0}, {math.Copysign(0, -1), 0}, {-3, 0}, {math.Inf(1), math.MaxFloat64}, {7, 7},
	} {
		n.SetLinkCapacity(l, tc.in)
		if got := n.links[l].capacity; got != tc.want || math.Signbit(got) {
			t.Errorf("SetLinkCapacity(%v): capacity %v, want %v", tc.in, got, tc.want)
		}
		if s := n.links[l].share; !(s >= 0 && s <= math.MaxFloat64) || math.Signbit(s) {
			t.Errorf("SetLinkCapacity(%v): share %v not finite and non-negative", tc.in, s)
		}
	}
	for _, c := range []float64{0, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddLink(%v) accepted, want panic", c)
				}
			}()
			n.AddLink(c)
		}()
	}
}

func TestSingleFlowFullRate(t *testing.T) {
	eng := sim.NewEngine()
	spec := DefaultSpec()
	spec.Racks = 1
	spec.NodesPerRack = 4
	c := mustCluster(t, eng, spec)

	var doneAt sim.Time
	c.Transfer(0, 1, 125e6, func() { doneAt = eng.Now() }) // 1 second at 1 Gb/s
	if _, err := eng.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(doneAt)-1.0) > 1e-9 {
		t.Fatalf("single flow finished at %v, want 1.0s", doneAt)
	}
}

func TestTwoFlowsShareHostUplink(t *testing.T) {
	eng := sim.NewEngine()
	spec := DefaultSpec()
	spec.Racks = 1
	spec.NodesPerRack = 4
	c := mustCluster(t, eng, spec)

	var t1, t2 sim.Time
	// Both flows leave node 0: they share its 125 MB/s uplink.
	c.Transfer(0, 1, 125e6, func() { t1 = eng.Now() })
	c.Transfer(0, 2, 125e6, func() { t2 = eng.Now() })
	if _, err := eng.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	// Each gets 62.5 MB/s -> 2 seconds.
	if math.Abs(float64(t1)-2.0) > 1e-9 || math.Abs(float64(t2)-2.0) > 1e-9 {
		t.Fatalf("shared flows finished at %v and %v, want 2.0s each", t1, t2)
	}
}

func TestDepartureSpeedsUpRemainder(t *testing.T) {
	eng := sim.NewEngine()
	spec := DefaultSpec()
	spec.Racks = 1
	spec.NodesPerRack = 4
	c := mustCluster(t, eng, spec)

	var tShort, tLong sim.Time
	c.Transfer(0, 1, 62.5e6, func() { tShort = eng.Now() }) // half the bytes
	c.Transfer(0, 2, 125e6, func() { tLong = eng.Now() })
	if _, err := eng.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	// Short: 62.5 MB at 62.5 MB/s -> 1 s. Long: 62.5 MB in the first
	// second, then full 125 MB/s for the remaining 62.5 MB -> 1.5 s.
	if math.Abs(float64(tShort)-1.0) > 1e-9 {
		t.Fatalf("short flow finished at %v, want 1.0", tShort)
	}
	if math.Abs(float64(tLong)-1.5) > 1e-9 {
		t.Fatalf("long flow finished at %v, want 1.5", tLong)
	}
}

func TestCrossRackBottleneck(t *testing.T) {
	eng := sim.NewEngine()
	spec := DefaultSpec()
	spec.Racks = 2
	spec.NodesPerRack = 30
	spec.TorUplinkBps = 250e6 // uplink fits only 2 host links
	c := mustCluster(t, eng, spec)

	// 4 flows from distinct rack-0 hosts to distinct rack-1 hosts share the
	// 250 MB/s ToR uplink: 62.5 MB/s each.
	times := make([]sim.Time, 4)
	for i := 0; i < 4; i++ {
		i := i
		c.Transfer(NodeID(i), NodeID(30+i), 62.5e6, func() { times[i] = eng.Now() })
	}
	c.Net().Flush()
	if err := c.Net().CheckFeasible(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	for i, tt := range times {
		if math.Abs(float64(tt)-1.0) > 1e-9 {
			t.Fatalf("flow %d finished at %v, want 1.0", i, tt)
		}
	}
}

func TestLocalTransferUsesDisk(t *testing.T) {
	eng := sim.NewEngine()
	spec := DefaultSpec()
	spec.DiskBps = 400e6
	c := mustCluster(t, eng, spec)

	var at sim.Time
	c.Transfer(5, 5, 400e6, func() { at = eng.Now() })
	if _, err := eng.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(at)-1.0) > 1e-9 {
		t.Fatalf("local read finished at %v, want 1.0", at)
	}
}

func TestZeroByteTransferCompletes(t *testing.T) {
	eng := sim.NewEngine()
	c := mustCluster(t, eng, DefaultSpec())
	ran := false
	c.Transfer(0, 1, 0, func() { ran = true })
	if _, err := eng.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("zero-byte transfer never completed")
	}
}

func TestPathRateReflectsContention(t *testing.T) {
	eng := sim.NewEngine()
	spec := DefaultSpec()
	spec.Racks = 1
	spec.NodesPerRack = 4
	c := mustCluster(t, eng, spec)

	idle := c.PathRate(0, 1)
	if math.Abs(idle-125e6) > 1 {
		t.Fatalf("idle path rate = %v, want full host link (prospective share of 1 flow)", idle)
	}
	c.Transfer(0, 2, 1e9, nil) // busy uplink at node 0
	busy := c.PathRate(0, 1)
	if math.Abs(busy-62.5e6) > 1 {
		t.Fatalf("busy path rate = %v, want 62.5e6", busy)
	}
	// Unaffected pair keeps full rate.
	if r := c.PathRate(2, 3); math.Abs(r-125e6) > 1 {
		t.Fatalf("unrelated path rate = %v, want 125e6", r)
	}
	if r := c.PathRate(1, 1); r != spec.DiskBps {
		t.Fatalf("local path rate = %v, want disk %v", r, spec.DiskBps)
	}
}

func TestPersistentCrossTraffic(t *testing.T) {
	eng := sim.NewEngine()
	spec := DefaultSpec()
	spec.Racks = 1
	spec.NodesPerRack = 4
	c := mustCluster(t, eng, spec)

	bg := c.InjectCrossTraffic(0, 1)
	if bg == nil {
		t.Fatal("InjectCrossTraffic returned nil")
	}
	var at sim.Time
	c.Transfer(0, 2, 62.5e6, func() { at = eng.Now() })
	if _, err := eng.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	// Shares node-0 uplink with the persistent flow: 62.5 MB/s -> 1 s.
	if math.Abs(float64(at)-1.0) > 1e-9 {
		t.Fatalf("transfer under cross-traffic finished at %v, want 1.0", at)
	}
	// Cancel and verify a new transfer gets the full link.
	c.Net().Cancel(bg)
	var at2 sim.Time
	start := eng.Now()
	c.Transfer(0, 2, 125e6, func() { at2 = eng.Now() })
	if _, err := eng.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(at2-start)-1.0) > 1e-9 {
		t.Fatalf("post-cancel transfer took %v, want 1.0", at2-start)
	}
	if c.InjectCrossTraffic(3, 3) != nil {
		t.Fatal("self cross-traffic should be nil")
	}
}

func TestFeasibilityUnderRandomLoad(t *testing.T) {
	// Property: at every commit point, no link is oversubscribed, and all
	// flows eventually finish.
	rng := sim.NewRNG(123)
	for trial := 0; trial < 20; trial++ {
		eng := sim.NewEngine()
		spec := DefaultSpec()
		spec.Racks = 1 + rng.Intn(3)
		spec.NodesPerRack = 2 + rng.Intn(6)
		c := mustCluster(t, eng, spec)
		eng.AddCommitHook(func() {
			if err := c.Net().CheckFeasible(); err != nil {
				t.Error(err)
			}
		})
		n := c.Size()
		total := 30
		finished := 0
		for i := 0; i < total; i++ {
			src := NodeID(rng.Intn(n))
			dst := NodeID(rng.Intn(n))
			bytes := rng.Uniform(1e6, 5e8)
			delay := rng.Uniform(0, 3)
			eng.Schedule(sim.Time(delay), func() {
				c.Transfer(src, dst, bytes, func() { finished++ })
			})
		}
		if _, err := eng.Run(sim.Infinity); err != nil {
			t.Fatal(err)
		}
		if finished != total {
			t.Fatalf("trial %d: %d/%d transfers finished", trial, finished, total)
		}
		if c.Net().ActiveFlows() != 0 {
			t.Fatalf("trial %d: %d flows still active after drain", trial, c.Net().ActiveFlows())
		}
	}
}

// BytesDelivered returns total bytes carried by completed flows.
func (n *FlowNet) BytesDelivered() float64 { return n.bytesDone }

func TestFlowConservation(t *testing.T) {
	eng := sim.NewEngine()
	spec := DefaultSpec()
	spec.Racks = 2
	spec.NodesPerRack = 5
	c := mustCluster(t, eng, spec)
	rng := sim.NewRNG(7)
	var sent float64
	for i := 0; i < 50; i++ {
		b := rng.Uniform(1e5, 1e8)
		sent += b
		c.Transfer(NodeID(rng.Intn(10)), NodeID(rng.Intn(10)), b, nil)
	}
	if _, err := eng.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	got := c.Net().BytesDelivered()
	if math.Abs(got-sent) > 1 {
		t.Fatalf("delivered %v bytes, sent %v", got, sent)
	}
}

func TestProspectiveRateEmptyPath(t *testing.T) {
	n := NewFlowNet(sim.NewEngine())
	if r := n.ProspectiveRate(nil); r != 0 {
		t.Fatalf("ProspectiveRate(nil) = %v, want 0", r)
	}
}

func TestCancelFinishedFlowHarmless(t *testing.T) {
	eng := sim.NewEngine()
	c := mustCluster(t, eng, DefaultSpec())
	f := c.Transfer(0, 1, 1e6, nil)
	if _, err := eng.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	if !f.Finished() {
		t.Fatal("flow not finished after drain")
	}
	c.Net().Cancel(f) // must not panic or corrupt state
	c.Net().Cancel(nil)
	if err := c.Net().CheckFeasible(); err != nil {
		t.Fatal(err)
	}
}
