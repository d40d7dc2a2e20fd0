package topology

import (
	"fmt"
	"math"
	"testing"

	"mapsched/internal/sim"
)

// checkWarmFill is the warm-start oracle, valid at a commit point. It
// requires the loaded bitmap to mark exactly the links that carry flows,
// then clears the round log and churn set, runs a cold fill and requires
// every live flow's cold share to equal its committed (warm) rate bit for
// bit, and the cold round log to equal the warm one round for round. The
// cold fill leaves the log and churn set as the warm fill did, so the
// check does not perturb later solves.
func checkWarmFill(n *FlowNet) error {
	for l := range n.links {
		if got, want := hasBit(n.loaded, l), len(n.links[l].flows) > 0; got != want {
			return fmt.Errorf("link %d: loaded bit %v, carries %d flows", l, got, len(n.links[l].flows))
		}
	}
	warmLinks := append([]int(nil), n.roundLink...)
	warmShares := append([]float64(nil), n.roundShare...)
	n.roundLink, n.roundShare = n.roundLink[:0], n.roundShare[:0]
	n.clearChurn()
	n.fill()
	for _, f := range n.liveList {
		if math.Float64bits(f.next) != math.Float64bits(f.rate) {
			return fmt.Errorf("flow %d: cold share %v, committed warm share %v", f.id, f.next, f.rate)
		}
	}
	if len(n.roundLink) != len(warmLinks) {
		return fmt.Errorf("cold fill ran %d rounds %v, warm fill logged %d %v", len(n.roundLink), n.roundLink, len(warmLinks), warmLinks)
	}
	for k := range warmLinks {
		if n.roundLink[k] != warmLinks[k] || math.Float64bits(n.roundShare[k]) != math.Float64bits(warmShares[k]) {
			return fmt.Errorf("round %d: cold (link %d, share %v), warm (link %d, share %v)",
				k, n.roundLink[k], n.roundShare[k], warmLinks[k], warmShares[k])
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
// every live flow, which empties the live set. A final event restores
// every link and cancels the persistent flows so the transfers drain.
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
	commits := 0
	eng.AddCommitHook(func() {
		commits++
		if err := checkWarmFill(n); err != nil {
			t.Fatalf("commit %d: %v", commits, err)
		}
	})

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
	for ev := 0; len(data) > 0 && ev < 200; ev++ {
		k := 1 + next(4)
		eng.Schedule(sim.Time(ev)/4, func() {
			for ; k > 0; k-- {
				churn()
			}
		})
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

// TestWarmFillReplaysUnchurnedPrefix pins that the warm start engages.
// Five single-link flows bottleneck one link per round, in capacity
// order. Raising the capacity of the last bottleneck leaves the first
// four rounds replayable; raising the first bottleneck's leaves none.
// Both changes keep the bottleneck order, so the fill runs five rounds
// either way.
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
	if n.replayed != 0 || n.scanned != 5 {
		t.Fatalf("first fill: %d rounds replayed, %d scanned, want 0 and 5", n.replayed, n.scanned)
	}
	for _, tc := range []struct {
		link              LinkID
		capacity          float64
		replayed, scanned int64
	}{
		{4, 6, 4, 1},
		{0, 1.5, 0, 5},
	} {
		replayed, scanned := n.replayed, n.scanned
		eng.Schedule(eng.Now()+1, func() { n.SetLinkCapacity(tc.link, tc.capacity) })
		eng.Step()
		if r, s := n.replayed-replayed, n.scanned-scanned; r != tc.replayed || s != tc.scanned {
			t.Fatalf("link %d to %v: %d rounds replayed, %d scanned, want %d and %d",
				tc.link, tc.capacity, r, s, tc.replayed, tc.scanned)
		}
		if got := flows[tc.link].Rate(); got != tc.capacity {
			t.Fatalf("link %d to %v: flow rate %v", tc.link, tc.capacity, got)
		}
		if err := checkWarmFill(n); err != nil {
			t.Fatal(err)
		}
	}
}
