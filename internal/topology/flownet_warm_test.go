package topology

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mapsched/internal/sim"
)

// coldFill runs a fill with no round log and every loaded link dirty: the
// cold fill the warm start must reproduce. It leaves every live flow
// pointing at the round that froze it, clears the re-solved list and
// restores the round and flow counters.
func coldFill(n *FlowNet) {
	replayed, scanned, resolved := n.replayed, n.scanned, n.resolvedFlows
	defer func() { n.replayed, n.scanned, n.resolvedFlows = replayed, scanned, resolved }()
	for _, r := range n.log {
		n.releaseRound(r)
	}
	n.log = n.log[:0]
	for _, f := range liveFlows(n) {
		f.round = nil
	}
	for l := range n.links {
		if len(n.links[l].flows) > 0 {
			n.setDirty(l)
		}
	}
	n.fill()
	clear(n.resolved)
	n.resolved = n.resolved[:0]
}

// checkWarmFill is the warm-start oracle, valid at a commit point. It
// requires the dirty set to be empty and every live flow to point at a
// round of the log, then runs a cold fill and requires every live flow's
// cold share to equal its committed (warm) rate bit for bit, and the cold
// round log to equal the warm one round for round. The cold fill leaves
// the log as the warm fill did, so the check does not perturb later
// solves.
func checkWarmFill(n *FlowNet) error {
	if len(n.dirtyList) != 0 || slices.ContainsFunc(n.dirtyLinks, func(w uint64) bool { return w != 0 }) {
		return fmt.Errorf("dirty links %v left after the commit", n.dirtyList)
	}
	type logged struct {
		link  int
		share float64
	}
	var warm []logged
	for k, r := range n.log {
		if r.pos != k || r.gen != n.gen || r.subs != 0 {
			return fmt.Errorf("round %d: pos %d, gen %d of %d, subs %d", k, r.pos, r.gen, n.gen, r.subs)
		}
		warm = append(warm, logged{r.link, r.share})
	}
	live := liveFlows(n)
	for _, f := range live {
		if r := f.round; r == nil || r.pos >= len(n.log) || n.log[r.pos] != r {
			return fmt.Errorf("flow %d points at no round of the log", f.id)
		}
	}
	coldFill(n)
	for _, f := range live {
		if math.Float64bits(f.round.share) != math.Float64bits(f.rate) {
			return fmt.Errorf("flow %d: cold share %v, committed warm share %v", f.id, f.round.share, f.rate)
		}
	}
	if len(n.log) != len(warm) {
		return fmt.Errorf("cold fill ran %d rounds, warm fill logged %d %v", len(n.log), len(warm), warm)
	}
	for k, w := range warm {
		if r := n.log[k]; r.link != w.link || math.Float64bits(r.share) != math.Float64bits(w.share) {
			return fmt.Errorf("round %d: cold (link %d, share %v), warm (link %d, share %v)",
				k, r.link, r.share, w.link, w.share)
		}
	}
	return nil
}

// runWarmFillScript drives a FlowNet from a byte script and checks
// checkWarmFill after every commit. Link capacities come from two or
// three levels, so equal shares, and hence ties between links, are
// common; the levels are not binary fractions, so freezing tied links in
// another order rounds differently. Each event makes one to four churns: transfer and persistent
// starts, cancels, capacity cuts to zero and restores, and cancelling
// every live flow, which empties the live set. Events share timestamps,
// and a commit may queue one at the instant the next transfer completes,
// so one solve commits the churn of several events and a completion. A
// final event restores every link and cancels the persistent flows so
// the transfers drain.
func runWarmFillScript(t *testing.T, data []byte) {
	next := func(mod int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % mod
	}
	eng := sim.NewEngine()
	n := NewFlowNet(eng)
	nl := 2 + next(6)
	levels := []float64{0.3, 0.7, 1.1}[:2+next(2)]
	caps := make([]float64, nl)
	for i := range caps {
		caps[i] = levels[next(len(levels))]
		n.AddLink(caps[i])
	}

	path := func() []LinkID {
		var p []LinkID
		on := make([]bool, nl)
		for k := 1 + next(3); k > 0; k-- {
			if l := next(nl); !on[l] {
				on[l] = true
				p = append(p, LinkID(l))
			}
		}
		return p
	}
	var flows []*Flow
	churn := func() {
		switch op := next(10); {
		case op < 4:
			flows = append(flows, n.StartFlow(path(), float64(1+next(30)), nil))
		case op < 5:
			flows = append(flows, n.StartPersistentFlow(path()))
		case op < 7:
			if len(flows) > 0 {
				n.Cancel(flows[next(len(flows))])
			}
		case op < 8:
			n.SetLinkCapacity(LinkID(next(nl)), 0)
		case op < 9:
			l := next(nl)
			n.SetLinkCapacity(LinkID(l), caps[l])
		default:
			for _, f := range flows {
				n.Cancel(f)
			}
		}
	}
	event := func() {
		for k := 1 + next(4); k > 0; k-- {
			churn()
		}
	}
	commits, extra := 0, 0
	eng.AddCommitHook(func() {
		commits++
		if err := checkWarmFill(n); err != nil {
			t.Fatalf("commit %d: %v", commits, err)
		}
		if next(4) != 3 || extra == 50 {
			return
		}
		// Queue an event at the instant the next transfer completes, if
		// that comes before the restore.
		done := sim.Time(60)
		for _, f := range flows {
			if f.doneEv.Queued() {
				done = min(done, f.doneEv.At())
			}
		}
		if done < 60 {
			extra++
			eng.Schedule(done, event)
		}
	})
	for ev := 0; len(data) > 0 && ev < 200; ev++ {
		eng.Schedule(sim.Time(max(0, ev-next(3)))/4, event)
	}
	eng.Schedule(60, func() {
		for l, c := range caps {
			n.SetLinkCapacity(LinkID(l), c)
		}
		for _, f := range flows {
			if f.persistent {
				n.Cancel(f)
			}
		}
	})
	if _, err := eng.Run(sim.Infinity); err != nil {
		t.Fatal(err)
	}
	if n.ActiveFlows() != 0 {
		t.Fatalf("%d flows still active after drain", n.ActiveFlows())
	}
}

// TestWarmFillMatchesColdFill runs random churn scripts through the
// warm-start oracle: after every commit a cold fill must reproduce each
// committed share bit for bit and the round log round for round.
func TestWarmFillMatchesColdFill(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := sim.NewRNG(seed)
		data := make([]byte, 400)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runWarmFillScript(t, data) })
	}
}

// FuzzWarmFill fuzzes the churn script of TestWarmFillMatchesColdFill.
func FuzzWarmFill(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 0, 1, 2, 0, 3, 0, 1, 5, 1, 2, 3, 0, 4, 1, 1, 7, 2, 8, 2, 9, 0, 0, 2, 1, 3, 3, 6, 0})
	f.Add([]byte("\x05\x01\x02\x01\x00\x02\x03\x00\x00\x01\x02\x0a\x09\x02\x00\x01\x03\x07\x01\x08\x01\x05\x02\x04\x00"))
	f.Fuzz(func(t *testing.T, data []byte) { runWarmFillScript(t, data) })
}

// TestWarmFillReplaysUnchurnedPrefix pins that the warm start engages and
// re-solves only what a churn reaches. Five single-link flows bottleneck
// one link per round, in capacity order. Raising the capacity of the last
// bottleneck, of the first, or cutting a middle one below the first each
// re-solves the one flow of the churned round by a scan and replays the
// four other rounds, whether they come before or after it.
func TestWarmFillReplaysUnchurnedPrefix(t *testing.T) {
	eng := sim.NewEngine()
	n := NewFlowNet(eng)
	var flows []*Flow
	eng.Schedule(0, func() {
		for c := 1.0; c <= 5; c++ {
			flows = append(flows, n.StartPersistentFlow([]LinkID{n.AddLink(c)}))
		}
	})
	eng.Step()
	if n.replayed != 0 || n.scanned != 5 || n.resolvedFlows != 5 {
		t.Fatalf("first fill: %d rounds replayed, %d scanned, %d flows re-solved, want 0, 5 and 5",
			n.replayed, n.scanned, n.resolvedFlows)
	}
	for _, tc := range []struct {
		link     LinkID
		capacity float64
		order    []int // links of the rounds after the change
	}{
		{4, 6, []int{0, 1, 2, 3, 4}},
		{0, 1.5, []int{0, 1, 2, 3, 4}},
		{2, 0.5, []int{2, 0, 1, 3, 4}},
	} {
		replayed, scanned, resolved := n.replayed, n.scanned, n.resolvedFlows
		eng.Schedule(eng.Now()+1, func() { n.SetLinkCapacity(tc.link, tc.capacity) })
		eng.Step()
		if r, s, f := n.replayed-replayed, n.scanned-scanned, n.resolvedFlows-resolved; r != 4 || s != 1 || f != 1 {
			t.Fatalf("link %d to %v: %d rounds replayed, %d scanned, %d flows re-solved, want 4, 1 and 1",
				tc.link, tc.capacity, r, s, f)
		}
		for k, r := range n.log {
			if r.link != tc.order[k] {
				t.Fatalf("link %d to %v: round %d froze link %d, want %d", tc.link, tc.capacity, k, r.link, tc.order[k])
			}
		}
		if got := flows[tc.link].Rate(); got != tc.capacity {
			t.Fatalf("link %d to %v: flow rate %v", tc.link, tc.capacity, got)
		}
		if err := checkWarmFill(n); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWarmFillOnCluster runs the warm-start and max-min oracles after
// every commit of random churn on a 4×5-node Cluster: in-rack transfers
// cross two links and cross-rack ones four, so each ToR link carries many
// flows and a churn that reaches one materializes all of them. Events
// start transfers and cross traffic, cancel flows, and cut host links to
// zero or half capacity and restore them (SetHostLinkFactor). The rounds
// of the run must be partly replayed and partly scanned.
func TestWarmFillOnCluster(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed)
		eng := sim.NewEngine()
		spec := DefaultSpec()
		spec.Racks, spec.NodesPerRack, spec.TorUplinkBps = 4, 5, 250e6
		c, err := NewCluster(eng, spec)
		if err != nil {
			t.Fatal(err)
		}
		n := c.Net()
		commits, torFlows := 0, 0
		eng.AddCommitHook(func() {
			commits++
			if err := checkWarmFill(n); err != nil {
				t.Fatalf("seed %d, commit %d: %v", seed, commits, err)
			}
			if err := checkMaxMin(n); err != nil {
				t.Fatalf("seed %d, commit %d: %v", seed, commits, err)
			}
			for r := range c.torUp {
				torFlows = max(torFlows, len(n.links[c.torUp[r]].flows), len(n.links[c.torDown[r]].flows))
			}
		})

		node := func() NodeID { return NodeID(rng.Intn(c.Size())) }
		pair := func() (NodeID, NodeID) {
			a, b := node(), node()
			for b == a {
				b = node()
			}
			return a, b
		}
		var flows []*Flow
		started, cancelled, fired := 0, 0, 0
		churn := func() {
			switch r := rng.Intn(12); {
			case r < 6:
				a, b := pair()
				started++
				flows = append(flows, c.Transfer(a, b, rng.Uniform(50e6, 500e6), func() { fired++ }))
			case r < 7:
				flows = append(flows, c.InjectCrossTraffic(pair()))
			case r < 9:
				if len(flows) > 0 {
					if f := flows[rng.Intn(len(flows))]; !f.Finished() {
						if !f.persistent {
							cancelled++
						}
						n.Cancel(f)
					}
				}
			case r < 10:
				c.SetHostLinkFactor(node(), float64(rng.Intn(2))/2)
			default:
				c.SetHostLinkFactor(node(), 1)
			}
		}
		for ev := 0; ev < 150; ev++ {
			eng.Schedule(sim.Time(rng.Uniform(0, 30)), func() {
				for k := 1 + rng.Intn(4); k > 0; k-- {
					churn()
				}
			})
		}
		eng.Schedule(40, func() {
			for a := 0; a < c.Size(); a++ {
				c.SetHostLinkFactor(NodeID(a), 1)
			}
			for _, f := range flows {
				if f.persistent {
					n.Cancel(f)
				}
			}
		})
		if _, err := eng.Run(sim.Infinity); err != nil {
			t.Fatal(err)
		}
		if fired+cancelled != started {
			t.Fatalf("seed %d: %d transfers started, %d fired, %d cancelled", seed, started, fired, cancelled)
		}
		if n.ActiveFlows() != 0 {
			t.Fatalf("seed %d: %d flows still active after drain", seed, n.ActiveFlows())
		}
		if n.replayed == 0 || n.scanned == 0 || torFlows < 10 {
			t.Fatalf("seed %d: %d rounds replayed, %d scanned, at most %d flows on a ToR link",
				seed, n.replayed, n.scanned, torFlows)
		}
	}
}
