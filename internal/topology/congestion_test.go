package topology

import (
	"math"
	"testing"

	"mapsched/internal/sim"
)

func TestCongestionAlphaDegradesGoodput(t *testing.T) {
	eng := sim.NewEngine()
	spec := DefaultSpec()
	spec.Racks = 1
	spec.NodesPerRack = 4
	spec.CongestionAlpha = 0.1
	c, err := NewCluster(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Two flows on one uplink: aggregate goodput = cap/(1+0.1) and each
	// flow gets half of it.
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
	// Each rate = (125e6/1.1)/2 = 56.82e6 -> 62.5e6 bytes in 1.1 s.
	want := 1.1
	if math.Abs(float64(t1)-want) > 1e-9 || math.Abs(float64(t2)-want) > 1e-9 {
		t.Fatalf("flows finished at %v, %v; want %v", t1, t2, want)
	}
}

func TestCongestionAlphaSingleFlowUnaffected(t *testing.T) {
	eng := sim.NewEngine()
	spec := DefaultSpec()
	spec.Racks = 1
	spec.NodesPerRack = 4
	spec.CongestionAlpha = 0.5
	c, err := NewCluster(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	var at sim.Time
	c.Transfer(0, 1, 125e6, func() { at = eng.Now() })
	if _, err := eng.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(at)-1.0) > 1e-9 {
		t.Fatalf("lone flow finished at %v, want 1.0 (no self-penalty)", at)
	}
}

func TestCongestionAlphaValidation(t *testing.T) {
	spec := DefaultSpec()
	spec.CongestionAlpha = -0.1
	if _, err := NewCluster(sim.NewEngine(), spec); err == nil {
		t.Fatal("negative alpha accepted")
	}
	// SetCongestionAlpha clamps negatives rather than corrupting shares.
	n := NewFlowNet(sim.NewEngine())
	n.SetCongestionAlpha(-5)
	l := n.AddLink(100)
	if got := n.effCapacity(int(l), 10); got != 100 {
		t.Fatalf("clamped alpha still degrades capacity: %v", got)
	}
}

func TestProspectiveRateUnderAlpha(t *testing.T) {
	eng := sim.NewEngine()
	spec := DefaultSpec()
	spec.Racks = 1
	spec.NodesPerRack = 4
	spec.CongestionAlpha = 0.1
	c, err := NewCluster(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	idle := c.PathRate(0, 1) // prospective single flow: full capacity
	if math.Abs(idle-125e6) > 1 {
		t.Fatalf("idle prospective rate = %v", idle)
	}
	c.Transfer(0, 2, 1e12, nil)
	busy := c.PathRate(0, 1) // 2 flows: (125e6/1.1)/2
	want := 125e6 / 1.1 / 2
	if math.Abs(busy-want) > 1 {
		t.Fatalf("busy prospective rate = %v, want %v", busy, want)
	}
}
