package topology

import (
	"fmt"
	"math"
	"testing"

	"mapsched/internal/sim"
)

// Rate returns the flow's bandwidth share in bytes/second as of the last
// commit (FlowNet.Flush). Churn inside a dispatched event does not move it
// until that event commits; a flow started mid-event reads 0 until then.
func (f *Flow) Rate() float64 { return f.rate }

// StartFlow is StartFlowBetween on an untagged flow.
func (n *FlowNet) StartFlow(path []LinkID, bytes float64, done func()) *Flow {
	return n.StartFlowBetween(-1, -1, path, bytes, done)
}

// StartPersistentFlow is StartPersistentFlowBetween on an untagged flow.
func (n *FlowNet) StartPersistentFlow(path []LinkID) *Flow {
	return n.StartPersistentFlowBetween(-1, -1, path)
}

// randomPath returns one to three distinct links out of nl.
func randomPath(rng *sim.RNG, nl int) []LinkID {
	k := 1 + rng.Intn(3)
	if k > nl {
		k = nl
	}
	perm := rng.Perm(nl)
	path := make([]LinkID, k)
	for i := range path {
		path[i] = LinkID(perm[i])
	}
	return path
}

// liveFlows returns the flows on the network's links, each taken at the
// first link of its path.
func liveFlows(n *FlowNet) []*Flow {
	var out []*Flow
	for l := range n.links {
		for _, f := range n.links[l].flows {
			if f.links[0] == LinkID(l) {
				out = append(out, f)
			}
		}
	}
	return out
}

// checkMaxMin is the solver oracle, valid at a commit point. It asserts
// that the committed shares are feasible (no link carries more than its
// capacity) and max-min optimal (every live flow crosses a
// saturated link on which no other flow gets more), and that the
// completion-event bookkeeping follows them: a live transfer's event is
// queued exactly when its share is positive, and then fires at exactly
// lastUpdate + remaining/rate, so no flow whose share moved kept the
// event of its old share.
func checkMaxMin(n *FlowNet) error {
	if err := n.CheckFeasible(); err != nil {
		return err
	}
	live := liveFlows(n)
	if len(live) != n.ActiveFlows() {
		return fmt.Errorf("%d flows on the links, %d counted active", len(live), n.ActiveFlows())
	}
	const tol = 1e-9
	for _, f := range live {
		if f.finished {
			return fmt.Errorf("finished flow %d still on a link after the commit", f.id)
		}
		bottleneck := false
		for _, l := range f.links {
			var sum, max float64
			for _, g := range n.links[l].flows {
				sum += g.rate
				max = math.Max(max, g.rate)
			}
			if sum >= n.links[l].capacity*(1-tol) && f.rate >= max*(1-tol) {
				bottleneck = true
				break
			}
		}
		if !bottleneck {
			return fmt.Errorf("flow %d (rate %v) has no saturated link on which it is maximal", f.id, f.rate)
		}
		if f.persistent {
			continue
		}
		if queued := f.doneEv.Queued(); queued != (f.rate > 0) {
			return fmt.Errorf("flow %d: rate %v but completion queued=%v", f.id, f.rate, queued)
		}
		if f.rate > 0 {
			if at, want := f.doneEv.At(), f.lastUpdate+sim.Time(f.remaining/f.rate); at != want {
				return fmt.Errorf("flow %d: completion at %v, want lastUpdate %v + remaining %v / rate %v = %v",
					f.id, at, f.lastUpdate, f.remaining, f.rate, want)
			}
		}
	}
	return nil
}

// TestMaxMinOracle drives random churn — transfers, persistent flows,
// cancels, links cut to zero capacity and restored, several churns per
// event — over small random topologies and
// checks the oracle after every commit. Every transfer that is not
// cancelled must finish once the links are restored.
func TestMaxMinOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := sim.NewRNG(seed)
		eng := sim.NewEngine()
		n := NewFlowNet(eng)
		nl := 2 + rng.Intn(5)
		caps := make([]float64, nl)
		for i := range caps {
			caps[i] = rng.Uniform(1, 10)
			n.AddLink(caps[i])
		}
		commits := 0
		eng.AddCommitHook(func() {
			commits++
			if err := checkMaxMin(n); err != nil {
				t.Fatalf("seed %d, commit %d: %v", seed, commits, err)
			}
		})

		var flows []*Flow
		started, cancelled, fired := 0, 0, 0
		churn := func() {
			switch r := rng.Intn(10); {
			case r < 5:
				started++
				flows = append(flows, n.StartFlow(randomPath(rng, nl), rng.Uniform(0.5, 30), func() { fired++ }))
			case r < 6:
				flows = append(flows, n.StartPersistentFlow(randomPath(rng, nl)))
			case r < 8:
				if len(flows) > 0 {
					if f := flows[rng.Intn(len(flows))]; !f.Finished() {
						if !f.persistent {
							cancelled++
						}
						n.Cancel(f)
					}
				}
			default:
				c := 0.0
				if rng.Intn(3) != 0 {
					c = rng.Uniform(1, 10)
				}
				n.SetLinkCapacity(LinkID(rng.Intn(nl)), c)
			}
		}
		for ev := 0; ev < 60; ev++ {
			eng.Schedule(sim.Time(rng.Uniform(0, 20)), func() {
				for k := 1 + rng.Intn(4); k > 0; k-- {
					churn()
				}
			})
		}
		// Restore every link and drop the background flows so the stalled
		// transfers drain.
		eng.Schedule(25, func() {
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
		if fired+cancelled != started {
			t.Fatalf("seed %d: %d transfers started, %d fired, %d cancelled", seed, started, fired, cancelled)
		}
		if n.ActiveFlows() != 0 {
			t.Fatalf("seed %d: %d flows still active after drain", seed, n.ActiveFlows())
		}
	}
}

// TestSharesIndependentOfChurnOrder reaches the same live set inside one
// event by different start/cancel orders — some with transient flows
// started and cancelled within the event — and requires bit-identical
// committed shares and completion times.
func TestSharesIndependentOfChurnOrder(t *testing.T) {
	type spec struct {
		path       []LinkID
		bytes      float64
		persistent bool
	}
	for seed := int64(1); seed <= 30; seed++ {
		plan := sim.NewRNG(seed)
		nl := 3 + plan.Intn(4)
		caps := make([]float64, nl)
		for i := range caps {
			caps[i] = plan.Uniform(1, 10)
		}
		if plan.Intn(3) == 0 {
			caps[plan.Intn(nl)] = 0
		}
		mk := func(k int) []spec {
			out := make([]spec, k)
			for i := range out {
				out[i] = spec{randomPath(plan, nl), plan.Uniform(50, 100), plan.Intn(5) == 0}
			}
			return out
		}
		base, adds, transient := mk(4+plan.Intn(6)), mk(2+plan.Intn(6)), mk(1+plan.Intn(4))
		drop := plan.Perm(len(base))[:plan.Intn(len(base))]

		run := func(order int64, withTransients bool) map[string][2]float64 {
			eng := sim.NewEngine()
			n := NewFlowNet(eng)
			for _, c := range caps {
				n.SetLinkCapacity(n.AddLink(1), c)
			}
			start := func(s spec) *Flow {
				if s.persistent {
					return n.StartPersistentFlow(s.path)
				}
				return n.StartFlow(s.path, s.bytes, nil)
			}
			labels := map[string]*Flow{}
			eng.Schedule(0, func() {
				for i, s := range base {
					labels[fmt.Sprint("base", i)] = start(s)
				}
			})
			eng.Schedule(1, func() {
				// Ops: 0..len(adds)-1 start an add, then one op per dropped
				// base flow, then two per transient (whichever comes first
				// starts it, the other cancels it).
				nops := len(adds) + len(drop)
				if withTransients {
					nops += 2 * len(transient)
				}
				tflows := make([]*Flow, len(transient))
				for _, op := range sim.NewRNG(order).Perm(nops) {
					switch {
					case op < len(adds):
						labels[fmt.Sprint("add", op)] = start(adds[op])
					case op < len(adds)+len(drop):
						n.Cancel(labels[fmt.Sprint("base", drop[op-len(adds)])])
					default:
						i := (op - len(adds) - len(drop)) / 2
						if tflows[i] == nil {
							tflows[i] = start(transient[i])
						} else {
							n.Cancel(tflows[i])
						}
					}
				}
			})
			if _, err := eng.Run(1); err != nil {
				t.Fatal(err)
			}
			out := map[string][2]float64{}
			for name, f := range labels {
				if f.Finished() {
					continue
				}
				at := math.Inf(1)
				if f.doneEv.Queued() {
					at = float64(f.doneEv.At())
				}
				out[name] = [2]float64{f.Rate(), at}
			}
			return out
		}

		want := run(seed, false)
		for _, order := range []int64{seed + 100, seed + 200} {
			got := run(order, true)
			if len(got) != len(want) {
				t.Fatalf("seed %d order %d: %d live flows, want %d", seed, order, len(got), len(want))
			}
			for name, w := range want {
				if g := got[name]; g != w {
					t.Fatalf("seed %d order %d: %s (rate, completion) = %v, want %v", seed, order, name, g, w)
				}
			}
		}
	}
}

// TestOneSolvePerCommittedEvent pins the batching: k flow starts inside
// one dispatched event cost exactly one solver pass, at the commit. Until
// then Rate() reports the last committed share (zero for the new flows)
// while the occupancy-only reads already see every start.
func TestOneSolvePerCommittedEvent(t *testing.T) {
	eng := sim.NewEngine()
	n := NewFlowNet(eng)
	path := []LinkID{n.AddLink(12)}
	var first *Flow
	eng.Schedule(0, func() { first = n.StartFlow(path, 1e6, nil) })
	eng.Step()
	if first.Rate() != 12 {
		t.Fatalf("lone flow rate = %v, want 12", first.Rate())
	}

	const k = 5
	before := n.FullRecomputes()
	var fresh []*Flow
	eng.Schedule(1, func() {
		for i := 0; i < k; i++ {
			fresh = append(fresh, n.StartFlow(path, 1e6, nil))
		}
		if first.Rate() != 12 {
			t.Errorf("mid-event Rate() = %v, want the committed 12", first.Rate())
		}
		for _, f := range fresh {
			if f.Rate() != 0 {
				t.Errorf("uncommitted flow reports rate %v, want 0", f.Rate())
			}
		}
		if got, want := n.ProspectiveRate(path), 12.0/(k+2); got != want {
			t.Errorf("mid-event ProspectiveRate = %v, want %v", got, want)
		}
		if n.CheckFeasible() == nil {
			t.Error("CheckFeasible accepted a call between a churn and its commit")
		}
		if n.FullRecomputes() != before {
			t.Error("solver ran before the event committed")
		}
	})
	eng.Step()
	if got := n.FullRecomputes() - before; got != 1 {
		t.Fatalf("%d flow starts in one event cost %d solver passes, want 1", k, got)
	}
	for _, f := range append(fresh, first) {
		if f.Rate() != 12.0/(k+1) {
			t.Fatalf("committed rate = %v, want %v", f.Rate(), 12.0/(k+1))
		}
	}
	if err := checkMaxMin(n); err != nil {
		t.Fatal(err)
	}
}

// TestEpochAdvancesOnChurnOnly pins the cache-invalidation contract: the
// epoch moves exactly when flows start, finish or are cancelled, and
// stands still otherwise.
func TestEpochAdvancesOnChurnOnly(t *testing.T) {
	eng := sim.NewEngine()
	c, err := NewCluster(eng, DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d", c.Epoch())
	}
	f := c.Transfer(0, 1, 1e6, nil)
	e1 := c.Epoch()
	if e1 == 0 {
		t.Fatal("epoch did not advance on flow start")
	}
	// Observations without churn must not move the epoch.
	_ = c.PathRate(2, 3)
	_ = c.Net().ProspectiveRate([]LinkID{0})
	if c.Epoch() != e1 {
		t.Fatal("epoch advanced without churn")
	}
	// Local transfers bypass the network entirely.
	c.Transfer(5, 5, 1e6, nil)
	if c.Epoch() != e1 {
		t.Fatal("epoch advanced on local transfer")
	}
	c.Net().Cancel(f)
	if c.Epoch() == e1 {
		t.Fatal("epoch did not advance on cancel")
	}
}
