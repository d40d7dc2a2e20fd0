package topology

import (
	"testing"

	"mapsched/internal/sim"
)

// poolCluster builds a small one-rack cluster for the pooling tests.
func poolCluster(t *testing.T) (*sim.Engine, *Cluster) {
	t.Helper()
	eng := sim.NewEngine()
	spec := DefaultSpec()
	spec.Racks = 1
	spec.NodesPerRack = 4
	c, err := NewCluster(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	return eng, c
}

// TestFlowReuseAfterCancel is the flow-level stale-callback guard: a
// cancelled-and-released Flow object may be recycled into a later
// Transfer, and nothing of the old life — its done callback, its queued
// completion event, its remaining bytes — may leak into the new one.
func TestFlowReuseAfterCancel(t *testing.T) {
	eng, c := poolCluster(t)
	staleFired := false
	old := c.Transfer(0, 1, 125e6, func() { staleFired = true })
	c.Net().Cancel(old)
	c.Net().Release(old)
	// The flush commit hook runs at the next step; give it one.
	if _, err := eng.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}

	fired := 0
	var doneAt sim.Time
	fresh := c.Transfer(0, 1, 125e6, func() { fired++; doneAt = eng.Now() })
	if fresh != old {
		t.Log("allocator did not reuse the flow; pool path not exercised")
	}
	if fresh.Finished() {
		t.Fatal("recycled flow started life finished")
	}
	if _, err := eng.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	if staleFired {
		t.Fatal("cancelled flow's done callback fired")
	}
	if fired != 1 {
		t.Fatalf("recycled flow's callback fired %d times, want 1", fired)
	}
	// A lone flow gets the full node-to-node path rate: the recycled
	// object must not have inherited the old life's progress.
	want := sim.Time(125e6 / c.PathRate(0, 1))
	if diff := float64(doneAt - want); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("recycled flow finished at %v, want %v", doneAt, want)
	}
}

// TestFlowReuseAfterMidTransferCancel cancels a flow mid-transfer (with
// its completion event queued at a concrete time) and reuses the object:
// the old completion event must not fire for the new life.
func TestFlowReuseAfterMidTransferCancel(t *testing.T) {
	eng, c := poolCluster(t)
	staleFired := false
	old := c.Transfer(0, 1, 125e6, func() { staleFired = true })
	eng.Schedule(0.25, func() {
		c.Net().Cancel(old)
		c.Net().Release(old)
	})
	fired := 0
	eng.Schedule(0.5, func() {
		fresh := c.Transfer(0, 1, 125e6, func() { fired++ })
		if fresh != old {
			t.Log("allocator did not reuse the flow; pool path not exercised")
		}
	})
	if _, err := eng.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	if staleFired {
		t.Fatal("mid-transfer-cancelled flow's done callback fired")
	}
	if fired != 1 {
		t.Fatalf("flow started after cancel fired %d times, want 1", fired)
	}
}
