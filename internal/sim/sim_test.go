package sim

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// Shuffle randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Pending returns the number of events currently queued, in the heap and
// on the lane. Unless an instant is open, commit hooks run first, so churn
// made outside any dispatch — e.g. flows started before the run, whose
// completion events the flow network's share solve has yet to queue — is
// counted.
func (e *Engine) Pending() int {
	e.peek()
	return len(e.queue) + e.laneLive
}

// NormFloat64 returns a standard normal variate.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleAndRunOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("ran %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", e.Now())
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: order = %v", order)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(10, func() {
		e.After(5, func() { at = e.Now() })
	})
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if at != 15 {
		t.Fatalf("nested After fired at %v, want 15", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
}

func TestNilCallbackPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	e.Schedule(1, nil)
}

func TestRemove(t *testing.T) {
	e := NewEngine()
	ran := false
	var ev Event
	e.Reschedule(&ev, 1, func() { ran = true })
	e.Remove(&ev)
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after Remove, want 0", e.Pending())
	}
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("removed event ran")
	}
	// Removing again, and removing nil, must be harmless.
	e.Remove(&ev)
	e.Remove(nil)
}

func TestRunUntilHorizon(t *testing.T) {
	e := NewEngine()
	var ran []Time
	e.Schedule(1, func() { ran = append(ran, 1) })
	e.Schedule(10, func() { ran = append(ran, 10) })
	now, err := e.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ran) != 1 || ran[0] != 1 {
		t.Fatalf("ran = %v, want [1]", ran)
	}
	if now != 1 {
		t.Fatalf("Run(5) returned now = %v, want 1 (time of last event)", now)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	// Resume to completion.
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 2 {
		t.Fatalf("after resume ran = %v, want both events", ran)
	}
}

func TestRunAdvancesToHorizonWhenDrained(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	now, err := e.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if now != 100 {
		t.Fatalf("Run(100) with drained queue returned %v, want 100", now)
	}
}

func TestEventLimit(t *testing.T) {
	e := NewEngine()
	var tick func()
	tick = func() { e.After(1, tick) }
	e.After(1, tick)
	e.SetEventLimit(50)
	if _, err := e.Run(Infinity); err == nil {
		t.Fatal("runaway loop did not trip the event limit")
	}
	if e.Fired() != 50 {
		t.Fatalf("Fired() = %d when the limit tripped, want exactly the limit 50", e.Fired())
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

func TestHeapPropertyRandomOrder(t *testing.T) {
	// Property: for any set of timestamps, execution order is sorted.
	f := func(stamps []uint16) bool {
		e := NewEngine()
		var got []Time
		for _, s := range stamps {
			at := Time(s)
			e.Schedule(at, func() { got = append(got, at) })
		}
		if _, err := e.Run(Infinity); err != nil {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				return false
			}
		}
		return len(got) == len(stamps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced diverging streams")
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	// Child streams depend on the label.
	a := NewRNG(7).Fork("net")
	b := NewRNG(7).Fork("disk")
	same := true
	for i := 0; i < 16; i++ {
		if a.Float64() != b.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("forks with different labels produced identical streams")
	}
	// Same label from same parent state is reproducible.
	c := NewRNG(7).Fork("net")
	d := NewRNG(7).Fork("net")
	for i := 0; i < 16; i++ {
		if c.Float64() != d.Float64() {
			t.Fatal("same-label forks diverged")
		}
	}
}

func TestRNGJitterBounds(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := g.Jitter(100, 0.2)
		if v < 80 || v > 120 {
			t.Fatalf("Jitter(100, 0.2) = %v out of [80,120]", v)
		}
	}
	if v := g.Jitter(50, -1); v != 50 {
		t.Fatalf("negative jitter factor should clamp to 0, got %v", v)
	}
	if v := g.Jitter(10, 5); v < 0 || v >= 20.001 {
		t.Fatalf("oversized jitter factor not clamped, got %v", v)
	}
}

func TestRNGBernoulliEdges(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 100; i++ {
		if g.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !g.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if g.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !g.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestRNGBernoulliFrequency(t *testing.T) {
	g := NewRNG(99)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if g.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v, want ~0.3", p)
	}
}

func TestRNGUniformRange(t *testing.T) {
	g := NewRNG(5)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(2, 9)
		if v < 2 || v >= 9 {
			t.Fatalf("Uniform(2,9) = %v out of range", v)
		}
	}
}

func TestInfinityOrdering(t *testing.T) {
	if !(Time(1e18) < Infinity) {
		t.Fatal("Infinity is not later than large finite times")
	}
}

func TestRNGPermDeterministic(t *testing.T) {
	a := NewRNG(5).Perm(20)
	b := NewRNG(5).Perm(20)
	seen := make([]bool, 20)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Perm not deterministic")
		}
		if a[i] < 0 || a[i] >= 20 || seen[a[i]] {
			t.Fatal("Perm not a permutation")
		}
		seen[a[i]] = true
	}
}

func TestRNGShuffleDeterministic(t *testing.T) {
	mk := func() []int {
		v := []int{0, 1, 2, 3, 4, 5, 6, 7}
		NewRNG(9).Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
		return v
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Shuffle not deterministic")
		}
	}
}

func TestRNGDistributions(t *testing.T) {
	g := NewRNG(13)
	var sumN, sumE float64
	const n = 50000
	for i := 0; i < n; i++ {
		sumN += g.NormFloat64()
		sumE += g.ExpFloat64()
	}
	if m := sumN / n; math.Abs(m) > 0.02 {
		t.Fatalf("normal mean %v, want ~0", m)
	}
	if m := sumE / n; math.Abs(m-1) > 0.02 {
		t.Fatalf("exponential mean %v, want ~1", m)
	}
}

// TestRNGForkDoesNotConsumeParent pins the Fork contract the fault and
// scheduler subsystems rely on: deriving a child never advances the
// parent stream, so a subsystem that forks lazily mid-run cannot perturb
// draws elsewhere.
func TestRNGForkDoesNotConsumeParent(t *testing.T) {
	plain := NewRNG(99)
	forked := NewRNG(99)
	forked.Fork("a")
	forked.Fork("b").Fork("nested")
	for i := 0; i < 64; i++ {
		if plain.Int63() != forked.Int63() {
			t.Fatalf("draw %d differs: forking consumed the parent stream", i)
		}
	}
}

// TestRNGForkIgnoresParentDrawCount pins the other half of the contract:
// a child's stream depends only on (parent seed, label), not on how many
// values the parent drew first or in which order siblings were forked.
func TestRNGForkIgnoresParentDrawCount(t *testing.T) {
	fresh := NewRNG(7).Fork("sub")
	drained := NewRNG(7)
	for i := 0; i < 1000; i++ {
		drained.Float64()
	}
	late := drained.Fork("sub")
	for i := 0; i < 64; i++ {
		if fresh.Int63() != late.Int63() {
			t.Fatalf("draw %d differs: child stream depends on parent draw count", i)
		}
	}

	// Sibling fork order is equally irrelevant: "x" after "y" equals "x"
	// forked alone.
	xAfterY := func() *RNG {
		p := NewRNG(7)
		p.Fork("y")
		return p.Fork("x")
	}()
	xAlone := NewRNG(7).Fork("x")
	for i := 0; i < 64; i++ {
		if xAfterY.Int63() != xAlone.Int63() {
			t.Fatalf("draw %d differs: fork order changed a sibling's stream", i)
		}
	}
}

// TestRescheduleSemantics covers the caller-owned event contract: moving a
// pending event, requeueing a fired one, and the new-seq FIFO placement.
func TestRescheduleSemantics(t *testing.T) {
	e := NewEngine()
	var order []string
	var ev Event
	e.Reschedule(&ev, 5, func() { order = append(order, "owned") })
	e.Reschedule(&ev, 2, func() { order = append(order, "moved") })
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d after rescheduling the same event, want 1", e.Pending())
	}
	e.Schedule(2, func() { order = append(order, "later-seq") })
	// Rescheduling assigns a fresh seq: the owned event now ties at t=2
	// but must fire after the Schedule above.
	e.Reschedule(&ev, 2, func() { order = append(order, "moved-again") })
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	want := []string{"later-seq", "moved-again"}
	if len(order) != len(want) || order[0] != want[0] || order[1] != want[1] {
		t.Fatalf("order = %v, want %v", order, want)
	}

	// A fired owned event is requeued by Reschedule.
	e.Reschedule(&ev, e.Now()+1, func() { order = append(order, "revived") })
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if order[len(order)-1] != "revived" {
		t.Fatalf("revived event did not fire: %v", order)
	}

	// Remove detaches an owned event.
	e.Reschedule(&ev, e.Now()+1, func() { t.Error("removed event fired") })
	e.Remove(&ev)
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after Remove, want 0", e.Pending())
	}
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
}

// TestReservedSeqs covers ReserveSeqs and RescheduleSeq: events given
// seqs from a reserved block tie in seq order, after every event
// scheduled before the reservation and before every event scheduled
// after it, and an unused seq is a harmless gap.
func TestReservedSeqs(t *testing.T) {
	e := NewEngine()
	var order []string
	log := func(s string) func() { return func() { order = append(order, s) } }
	e.Schedule(1, log("before"))
	base := e.ReserveSeqs(4)
	e.Schedule(1, log("after"))
	var evs [3]Event
	e.RescheduleSeq(&evs[0], 1, log("seq+3"), base+3)
	e.RescheduleSeq(&evs[1], 1, log("seq+0"), base)
	e.RescheduleSeq(&evs[2], 1, log("seq+1"), base+1)
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(order), "[before seq+0 seq+1 seq+3 after]"; got != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestRescheduleSeqUnreservedPanics(t *testing.T) {
	e := NewEngine()
	base := e.ReserveSeqs(2)
	var ev Event
	e.RescheduleSeq(&ev, 1, func() {}, base+1)
	defer func() {
		if recover() == nil {
			t.Error("RescheduleSeq at a seq never reserved did not panic")
		}
	}()
	e.RescheduleSeq(&ev, 1, func() {}, base+2)
}

func TestReserveSeqsWrapPanics(t *testing.T) {
	e := NewEngine()
	e.ReserveSeqs(10)
	e.ReserveSeqs(math.MaxUint64 - 10) // the counter reaches its last value
	defer func() {
		if recover() == nil {
			t.Error("ReserveSeqs past the counter's range did not panic")
		}
	}()
	e.ReserveSeqs(1)
}

// TestCommitHooksRunPerInstant verifies hook ordering and timing: once at
// the end of every instant, at its timestamp, and again at the end of an
// instant that a hook reopened by queueing an event at the current time.
func TestCommitHooksRunPerInstant(t *testing.T) {
	for _, tc := range []struct {
		name   string
		reopen bool // the first hook at t=3 queues event d at t=3
		want   []string
	}{
		// Run flushes hooks once on entry, then at the end of each instant.
		{"plain", false, []string{"commit@0", "a", "b", "commit@1", "c", "commit@3"}},
		{"reopened", true, []string{"commit@0", "a", "b", "commit@1", "c", "commit@3", "d", "commit@3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			var log []string
			reopen := tc.reopen
			e.AddCommitHook(func() {
				log = append(log, fmt.Sprintf("commit@%v", e.Now()))
				if reopen && e.Now() == 3 {
					reopen = false
					e.Schedule(e.Now(), func() { log = append(log, "d") })
				}
			})
			e.Schedule(1, func() { log = append(log, "a") })
			e.Schedule(1, func() { log = append(log, "b") })
			e.Schedule(3, func() { log = append(log, "c") })
			if _, err := e.Run(Infinity); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(log, tc.want) {
				t.Fatalf("log = %v, want %v", log, tc.want)
			}
		})
	}
}

// TestStepCommitsLikeRun drives random schedules with Step and with Run:
// both must dispatch the same events and commit at the same points. Events
// tie at a few distinct times, spawn events at their own time and later
// ones, and some commits reopen their instant. The hook commits only when
// an event ran since the last commit, as the flow network's Flush solves
// only after churn, so Step's entry hooks at an instant boundary, which
// find nothing to do, do not count as commits.
func TestStepCommitsLikeRun(t *testing.T) {
	drive := func(seed int64, step bool) []string {
		rng := NewRNG(seed)
		e := NewEngine()
		var log []string
		dirty := false
		var spawn func(name string, at Time)
		spawn = func(name string, at Time) {
			e.Schedule(at, func() {
				log = append(log, fmt.Sprintf("%s@%v", name, e.Now()))
				dirty = true
				if len(log) < 200 {
					switch rng.Intn(4) {
					case 0:
						spawn(name+"n", e.Now())
					case 1:
						spawn(name+"l", e.Now()+Time(rng.Intn(3)))
					}
				}
			})
		}
		e.AddCommitHook(func() {
			if !dirty {
				return
			}
			dirty = false
			log = append(log, fmt.Sprintf("commit@%v", e.Now()))
			if len(log) < 200 && rng.Intn(3) == 0 {
				spawn("h", e.Now())
			}
		})
		for i := 0; i < 12; i++ {
			spawn(fmt.Sprint(i), Time(rng.Intn(4)))
		}
		if step {
			for e.Step() {
			}
		} else if _, err := e.Run(Infinity); err != nil {
			t.Fatal(err)
		}
		return log
	}
	for seed := int64(1); seed <= 50; seed++ {
		run, step := drive(seed, false), drive(seed, true)
		if !slices.Equal(step, run) {
			t.Fatalf("seed %d:\nStep: %v\nRun:  %v", seed, step, run)
		}
		// Only an event a commit queued may run at the commit's time.
		for i := 1; i < len(run); i++ {
			at, ok := strings.CutPrefix(run[i-1], "commit")
			if ok && strings.HasSuffix(run[i], at) && !strings.HasPrefix(run[i], "h") {
				t.Fatalf("seed %d: %s ran after %s: %v", seed, run[i], run[i-1], run)
			}
		}
	}
}

// TestZeroEventUnqueued pins the zero Event as a ready caller-owned event:
// it is not queued, Remove leaves the queue alone, and Reschedule queues
// it.
func TestZeroEventUnqueued(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {}) // occupies the heap's first slot
	var ev Event
	if ev.Queued() {
		t.Fatal("zero Event reports Queued()")
	}
	e.Remove(&ev)
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d after removing a zero Event, want 1", e.Pending())
	}
	ran := false
	e.Reschedule(&ev, 2, func() { ran = true })
	if !ev.Queued() || e.Pending() != 2 {
		t.Fatalf("Reschedule of a zero Event: Queued() = %v, Pending() = %d", ev.Queued(), e.Pending())
	}
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if !ran || ev.Queued() {
		t.Fatalf("after the run: ran = %v, Queued() = %v", ran, ev.Queued())
	}
}

// TestQueueCrossImplEquivalence checks the event heap against a reference
// implementation: a plain list that pops the (at, seq) minimum. Both are
// driven with an identical, seeded stream of push / pop / remove
// operations (equal-timestamp clusters, far-future outliers, Infinity,
// grid-aligned ties) and must agree pop for pop; every queued event's
// index must stay its heap position + 1, and a popped or removed event
// must read unqueued.
func TestQueueCrossImplEquivalence(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := NewRNG(int64(1000 + trial))
			var h eventHeap
			var ref []*Event // the reference queue, in push order
			seq := uint64(0)
			mkAt := func() Time {
				switch rng.Intn(10) {
				case 0: // equal-timestamp cluster
					return Time(rng.Intn(4))
				case 1: // far-future outlier
					return Time(1e12 * (1 + rng.Float64()))
				case 2:
					return Infinity
				case 3, 4: // grid-aligned ties
					return Time(rng.Intn(400)) * 0.245
				default:
					return Time(100 * rng.Float64())
				}
			}
			refMin := func() int {
				m := 0
				for i, ev := range ref {
					if ev.at < ref[m].at || (ev.at == ref[m].at && ev.seq < ref[m].seq) {
						m = i
					}
				}
				return m
			}
			pop := func(op int) {
				if len(ref) == 0 {
					if h.Len() != 0 {
						t.Fatalf("op %d: reference empty, heap holds %d", op, h.Len())
					}
					return
				}
				m := refMin()
				got := heap.Pop(&h).(*Event)
				if got != ref[m] {
					t.Fatalf("op %d: heap popped (at=%v seq=%d), reference (at=%v seq=%d)",
						op, got.at, got.seq, ref[m].at, ref[m].seq)
				}
				if got.Queued() {
					t.Fatalf("op %d: popped event still reports Queued()", op)
				}
				ref = append(ref[:m], ref[m+1:]...)
			}
			for op := 0; op < 4000; op++ {
				switch r := rng.Float64(); {
				case r < 0.55:
					ev := &Event{at: mkAt(), seq: seq}
					seq++
					heap.Push(&h, ev)
					ref = append(ref, ev)
				case r < 0.75 && len(ref) > 0:
					i := rng.Intn(len(ref))
					ev := ref[i]
					heap.Remove(&h, ev.index-1)
					if ev.Queued() {
						t.Fatalf("op %d: removed event still reports Queued()", op)
					}
					ref = append(ref[:i], ref[i+1:]...)
				default:
					pop(op)
				}
				if h.Len() != len(ref) {
					t.Fatalf("op %d: len mismatch: heap %d, reference %d", op, h.Len(), len(ref))
				}
				for i, ev := range h {
					if ev.index != i+1 {
						t.Fatalf("op %d: event at heap slot %d has index %d", op, i, ev.index)
					}
				}
			}
			for op := 4000; len(ref) > 0; op++ { // the tails must match too
				pop(op)
			}
			if h.Len() != 0 {
				t.Fatalf("drained reference, heap holds %d", h.Len())
			}
		})
	}
}

// TestAppendLane covers the lane's contract: an unqueued event appended
// no earlier than every time appended before rides the lane, anything
// else falls back to the heap, and Pending, Remove and Reschedule treat
// lane events as queued events like any other.
func TestAppendLane(t *testing.T) {
	e := NewEngine()
	var order []string
	ev := make([]Event, 4)
	log := func(s string) func() { return func() { order = append(order, s) } }
	e.Append(&ev[0], 1, log("a"))
	e.Append(&ev[1], 2, log("b"))
	if !ev[0].Laned() || !ev[1].Laned() || !ev[0].Queued() || e.Pending() != 2 {
		t.Fatalf("in-order appends: Laned() = %v, %v; Pending() = %d", ev[0].Laned(), ev[1].Laned(), e.Pending())
	}
	e.Append(&ev[2], 1.5, log("c")) // earlier than b: the heap takes it
	if ev[2].Laned() || !ev[2].Queued() {
		t.Fatalf("out-of-order append: Laned() = %v, Queued() = %v", ev[2].Laned(), ev[2].Queued())
	}
	e.Append(&ev[0], 3, log("a")) // already queued: Reschedule moves it to the heap
	if ev[0].Laned() || e.Pending() != 3 {
		t.Fatalf("append of a queued event: Laned() = %v, Pending() = %d", ev[0].Laned(), e.Pending())
	}
	e.Schedule(2, log("d")) // ties b at t=2 with a later seq
	e.Append(&ev[3], 4, log("x"))
	e.Remove(&ev[3])
	if ev[3].Queued() || e.Pending() != 4 {
		t.Fatalf("removed lane event: Queued() = %v, Pending() = %d", ev[3].Queued(), e.Pending())
	}
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(order), "[c b d a]"; got != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
	for i := range ev {
		if ev[i].Queued() {
			t.Fatalf("event %d still queued after the run", i)
		}
	}
}

// TestLaneAdmitsByLastAppend pins the admission bound: removing the
// lane's tail does not lower it. With A@5 and B@7 on the lane and C@8
// appended then removed, D@6 must go to the heap and fire before B; a
// lane that compared against its last live slot would queue D after B.
func TestLaneAdmitsByLastAppend(t *testing.T) {
	e := NewEngine()
	var order []string
	var a, b, c, d Event
	e.Append(&a, 5, func() { order = append(order, "A") })
	e.Append(&b, 7, func() { order = append(order, "B") })
	e.Append(&c, 8, func() { order = append(order, "C") })
	e.Remove(&c)
	e.Append(&d, 6, func() { order = append(order, "D") })
	if d.Laned() {
		t.Fatal("D@6 joined the lane behind B@7")
	}
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(order), "[A D B]"; got != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// chooser is the engine oracle's source of workload choices.
type chooser interface{ Intn(n int) int }

// byteChooser draws choices from fuzz input, one byte each, and 0 once
// the input runs out.
type byteChooser []byte

func (b *byteChooser) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// laneCover counts the lane cases one oracle run exercised.
type laneCover struct {
	laned      int // appends the lane took
	fellBack   int // appends that went to the heap
	moved      int // lane events moved by Reschedule or Append
	removed    int // lane events removed
	tailEarly  int // appends earlier than the last append after its event left a live lane
	crossTies  int // dispatches tied in time with a queued event of the other queue
	seqTies    int // dispatches tied in time with an event queued by an earlier call
	dispatched int
}

// checkEngineQueue drives an engine and a reference implementation with
// one workload drawn from src: a plain list of the live events that fires
// the (at, seq) minimum, seq being the order of the Schedule, Reschedule
// or Append call, or a seq from a block ReserveSeqs returned. Callbacks
// schedule fire-and-forget events (equal-timestamp clusters, far-future
// outliers, grid ties), and reschedule, remove and append caller-owned
// ones, appending both in and out of time order and rescheduling at
// reserved seqs handed out of call order. Every dispatch must be the
// reference's next event, every append must take the lane exactly when
// the event was unqueued and its time no earlier than every earlier lane
// append, Pending must count the reference, and both must drain
// together. No more than maxIDs events
// are scheduled.
func checkEngineQueue(t testing.TB, src chooser, maxIDs int) laneCover {
	t.Helper()
	type key struct {
		id   int
		at   Time
		seq  uint64
		lane bool
	}
	e := NewEngine()
	var (
		cov      laneCover
		live     []key // the reference queue
		seq      uint64
		nextID   int
		owned    [24]Event
		oid      [24]int // live id of each owned event, -1 if none
		lastLane Time    // the latest time the lane took
		tailID   = -1    // id of the event the lane took last
		tailGone bool    // that event left the lane before firing
	)
	for k := range oid {
		oid[k] = -1
	}
	// drop takes a queued event out of the reference and reports whether
	// it was on the lane.
	drop := func(id int) bool {
		for i, k := range live {
			if k.id == id {
				if k.lane && id == tailID {
					tailGone = true
				}
				live = append(live[:i], live[i+1:]...)
				return k.lane
			}
		}
		t.Fatalf("id %d missing from the reference", id)
		return false
	}
	frac := func() Time { return Time(src.Intn(256)) / 256 }
	mkAt := func() Time {
		switch src.Intn(8) {
		case 0:
			return e.Now() // same-instant cluster
		case 1:
			return e.Now() + 1e12*(1+frac()) // far-future outlier
		case 2, 3: // ties on an absolute quarter grid
			return Time(math.Ceil(float64(e.Now()))) + Time(src.Intn(8))*0.25
		default:
			return e.Now() + 3*frac()
		}
	}
	var fire func(id int)
	// addSeq enters an event into the reference at seq s; add takes the
	// next seq, as a Schedule, Reschedule or Append call does.
	addSeq := func(at Time, s uint64, lane bool) (int, func()) {
		id := nextID
		nextID++
		live = append(live, key{id, at, s, lane})
		return id, func() { fire(id) }
	}
	add := func(at Time, lane bool) (int, func()) {
		seq++
		return addSeq(at, seq-1, lane)
	}
	fire = func(id int) {
		if len(live) == 0 {
			t.Fatalf("dispatched id %d at %v, reference is empty", id, e.Now())
		}
		want := 0
		for i, k := range live {
			if k.at < live[want].at || (k.at == live[want].at && k.seq < live[want].seq) {
				want = i
			}
		}
		next := live[want]
		if next.id != id || next.at != e.Now() {
			t.Fatalf("dispatched id %d at %v, reference next is %+v", id, e.Now(), next)
		}
		for _, k := range live {
			if k.at == next.at && k.lane != next.lane {
				cov.crossTies++
				break
			}
		}
		for _, k := range live {
			if k.at == next.at && k.id < next.id { // ids follow call order
				cov.seqTies++
				break
			}
		}
		cov.dispatched++
		live = append(live[:want], live[want+1:]...)
		if e.Pending() != len(live) {
			t.Fatalf("Pending() = %d, reference holds %d", e.Pending(), len(live))
		}
		for k := range oid {
			if oid[k] == id {
				oid[k] = -1
			}
		}
		if nextID > maxIDs {
			return
		}
		for n := 0; n < 3; n++ {
			op := src.Intn(10)
			if n == 0 {
				op = 0 // one child per dispatch keeps the workload alive
			}
			k := src.Intn(len(owned))
			switch op {
			case 0, 1, 2, 3:
				at := mkAt()
				_, fn := add(at, false)
				e.Schedule(at, fn)
			case 4:
				if oid[k] >= 0 && drop(oid[k]) {
					cov.moved++
				}
				at := mkAt()
				id, fn := add(at, false)
				oid[k] = id
				e.Reschedule(&owned[k], at, fn)
			case 5:
				e.Remove(&owned[k])
				if oid[k] >= 0 && drop(oid[k]) {
					cov.removed++
				}
				oid[k] = -1
			case 9: // reserve a block, then hand its seqs out of call order
				size := 1 + src.Intn(6)
				base, refBase := e.ReserveSeqs(uint64(size)), seq
				seq += uint64(size)
				offs := make([]uint64, size)
				for i := range offs {
					j := src.Intn(i + 1)
					offs[i], offs[j] = offs[j], uint64(i)
				}
				shared := mkAt()
				for _, off := range offs[:1+src.Intn(min(4, size))] {
					at := shared
					if src.Intn(2) == 0 {
						at = mkAt()
					}
					if oid[k] >= 0 && drop(oid[k]) {
						cov.moved++
					}
					id, fn := addSeq(at, refBase+off, false)
					oid[k] = id
					e.RescheduleSeq(&owned[k], at, fn, base+off)
					k = src.Intn(len(owned))
				}
			default: // Append: in order, tied with the lane's tail, or anywhere
				var at Time
				switch src.Intn(4) {
				case 0:
					at = max(lastLane, e.Now())
				case 1:
					at = max(lastLane, e.Now()) + Time(src.Intn(4))*0.25
				default:
					at = mkAt()
				}
				lane := oid[k] < 0 && at >= lastLane
				if at < lastLane && tailGone {
					for _, l := range live {
						if l.lane { // the bug this case guards needs a live lane
							cov.tailEarly++
							break
						}
					}
				}
				if oid[k] >= 0 && drop(oid[k]) {
					cov.moved++
				}
				id, fn := add(at, lane)
				oid[k] = id
				e.Append(&owned[k], at, fn)
				if owned[k].Laned() != lane {
					t.Fatalf("Append at %v (lane bound %v, was queued %v): Laned() = %v, want %v",
						at, lastLane, !lane && at >= lastLane, owned[k].Laned(), lane)
				}
				if lane {
					cov.laned++
					lastLane, tailID, tailGone = at, id, false
				} else {
					cov.fellBack++
				}
			}
		}
	}
	for i := 0; i < 20; i++ {
		at := Time(i) * 0.1
		_, fn := add(at, false)
		e.Schedule(at, fn)
	}
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if len(live) != 0 || e.Pending() != 0 {
		t.Fatalf("drained engine, but the reference holds %d events and Pending() = %d", len(live), e.Pending())
	}
	return cov
}

// TestEngineCrossImplEquivalence runs the engine oracle on seeded random
// workloads and requires, over all trials, every lane case: in-order and
// fallen-back appends, lane events moved and removed, an append earlier
// than the last after the lane's tail was removed, equal-time ties
// between the lane and the heap, and equal-time ties that a reserved seq
// decided against call order.
func TestEngineCrossImplEquivalence(t *testing.T) {
	var sum laneCover
	for trial := 0; trial < 20; trial++ {
		cov := checkEngineQueue(t, NewRNG(int64(1000+trial)), 3000)
		if cov.dispatched < 1000 {
			t.Fatalf("trial %d: workload dispatched only %d events", trial, cov.dispatched)
		}
		sum.laned += cov.laned
		sum.fellBack += cov.fellBack
		sum.moved += cov.moved
		sum.removed += cov.removed
		sum.tailEarly += cov.tailEarly
		sum.crossTies += cov.crossTies
		sum.seqTies += cov.seqTies
		sum.dispatched += cov.dispatched
	}
	t.Logf("lane cases over all trials: %+v", sum)
	if sum.laned == 0 || sum.fellBack == 0 || sum.moved == 0 || sum.removed == 0 || sum.tailEarly == 0 || sum.crossTies == 0 || sum.seqTies == 0 {
		t.Fatalf("the workloads miss a lane case: %+v", sum)
	}
}

// FuzzEngineQueue runs the engine oracle on a workload the fuzz input
// chooses, one byte per choice.
func FuzzEngineQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 6, 3, 1, 1, 7, 5, 0, 2, 7, 5, 3, 8, 0, 7, 1})
	// Appends, removes the lane's tail, then appends earlier than it.
	f.Add([]byte("d\x93\xf7\xef\x06n\x1fr\xde\x1b\xf2\xbc,\xcd0\xa5\xaa\b_7\xab"))
	// Reschedules at reserved seqs that break an equal-time tie against
	// call order.
	f.Add([]byte("\x86\x05T\b\x8b\xab\xf1\x82\xc0\xf8\xdb"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteChooser(data)
		checkEngineQueue(t, &src, 400)
	})
}
