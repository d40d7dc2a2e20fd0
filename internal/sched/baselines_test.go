package sched

import (
	"testing"

	"mapsched/internal/topology"
)

func TestLARTSMapDelegatesToDelayScheduling(t *testing.T) {
	f := newFixture(t)
	j := f.addJob(t, 1, []topology.NodeID{3}, 1)
	l := NewLARTS()(f.env).(*LARTS)
	if got := l.AssignMap(f.ctxFor(j), 3); got == nil {
		t.Fatal("LARTS declined a local map")
	}
}

func TestLARTSReducePrefersDataNode(t *testing.T) {
	f := newFixture(t)
	j := f.addJob(t, 1, []topology.NodeID{0}, 1)
	// All of the reduce's input sits on node 2.
	finish(j.Maps[0], 2)
	l := NewLARTS()(f.env).(*LARTS)
	ctx := f.ctxFor(j)
	// The data node is accepted immediately.
	if got := l.AssignReduce(ctx, 2); got == nil {
		t.Fatal("LARTS declined the max-data node")
	}
	j.Reduces[0].Reset()
	delete(l.waits, j.Reduces[0])
	// A dataless node is declined at first...
	if got := l.AssignReduce(ctx, 7); got != nil {
		t.Fatal("LARTS accepted a dataless node immediately")
	}
	// ...but the wait is bounded.
	accepted := false
	for i := 0; i < lartsMaxWait+1; i++ {
		if l.AssignReduce(ctx, 7) != nil {
			accepted = true
			break
		}
	}
	if !accepted {
		t.Fatal("LARTS never fell back after lartsMaxWait offers")
	}
}

func TestLARTSReduceNoDataYet(t *testing.T) {
	f := newFixture(t)
	j := f.addJob(t, 1, []topology.NodeID{0}, 1)
	j.Maps[0].Run(0, 0) // launched but nothing read: no shuffle data known
	l := NewLARTS()(f.env).(*LARTS)
	ctx := f.ctxFor(j)
	ctx.Slowstart = 0
	if got := l.AssignReduce(ctx, 5); got == nil {
		t.Fatal("LARTS declined with no shuffle data known (nothing to wait for)")
	}
}

func TestCapacityMapLocalityPriority(t *testing.T) {
	f := newFixture(t)
	// Job 1 (head of FIFO queue) has its block on node 5 only; job 2 on
	// node 0. Offering node 0 must run job 2's local task despite FIFO.
	j1 := f.addJob(t, 1, []topology.NodeID{5}, 1)
	j2 := f.addJob(t, 2, []topology.NodeID{0}, 1)
	c := NewCapacity()(f.env).(*Capacity)
	got := c.AssignMap(f.ctxFor(j1, j2), 0)
	if got == nil || got.Job != j2 {
		t.Fatalf("capacity ignored the higher-locality job: %v", got)
	}
	// With no local candidate anywhere, the head job's task runs.
	got = c.AssignMap(f.ctxFor(j1, j2), 6) // rack 1; j1's block on node 5 is rack 1
	if got == nil {
		t.Fatal("capacity declined with rack-local candidates available")
	}
	if got.Job != j1 {
		t.Fatalf("rack-local priority broken: got job %d", got.Job.ID)
	}
}

func TestCapacityMapNeverIdlesSlots(t *testing.T) {
	f := newFixture(t)
	j := f.addJob(t, 1, []topology.NodeID{5}, 1)
	c := NewCapacity()(f.env).(*Capacity)
	// Remote-only offer still assigns (no delay on the map side).
	if got := c.AssignMap(f.ctxFor(j), 0); got == nil {
		t.Fatal("capacity left a map slot idle")
	}
}

func TestCapacityReduceWaitsForData(t *testing.T) {
	f := newFixture(t)
	j := f.addJob(t, 1, []topology.NodeID{0}, 1)
	finish(j.Maps[0], 2)
	c := NewCapacity()(f.env).(*Capacity)
	ctx := f.ctxFor(j)
	// Node with data: immediate.
	if got := c.AssignReduce(ctx, 2); got == nil {
		t.Fatal("capacity declined the data node")
	}
	j.Reduces[0].Reset()
	delete(c.waits, j.Reduces[0])
	// Dataless node: declines, then bounded fallback.
	declines := 0
	for i := 0; i < capacityReduceWait+2; i++ {
		if c.AssignReduce(ctx, 7) != nil {
			break
		}
		declines++
	}
	if declines == 0 {
		t.Fatal("capacity accepted a dataless node immediately")
	}
	if declines > capacityReduceWait {
		t.Fatalf("capacity waited %d offers, bound %d", declines, capacityReduceWait)
	}
}

// TestBaselineNamesPinned pins each baseline's label to the fixed
// parameters it runs with.
func TestBaselineNamesPinned(t *testing.T) {
	f := newFixture(t)
	for want, b := range map[string]Builder{
		"fair-delay(d1=1,d2=2)":    NewFairDelay(),
		"coupling(wait=3)":         NewCoupling(),
		"larts(wait=5,sweet=0.25)": NewLARTS(),
		"capacity(fifo,wait=4)":    NewCapacity(),
	} {
		if got := b(f.env).Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestBaselineNames(t *testing.T) {
	f := newFixture(t)
	if NewLARTS()(f.env).Name() == "" {
		t.Fatal("LARTS unnamed")
	}
	if NewCapacity()(f.env).Name() == "" {
		t.Fatal("capacity unnamed")
	}
}
