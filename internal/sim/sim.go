// Package sim provides a deterministic discrete-event simulation core:
// a virtual clock, a priority event queue, and seeded random sources.
//
// All higher layers (network flows, heartbeats, task execution) are driven
// by events scheduled on a single *Engine. The engine is strictly
// single-threaded: callbacks run in timestamp order, ties broken by
// scheduling order, which makes every simulation bit-for-bit reproducible
// for a given seed.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is a point in simulated time, in seconds since the start of the run.
type Time float64

// Duration is a span of simulated time in seconds.
type Duration = float64

// Infinity is a time later than any event the simulator will ever fire.
const Infinity Time = Time(math.MaxFloat64)

// Event is a scheduled callback that its owner holds: callers embed an
// Event value and drive it with Reschedule, Append and Remove. The zero
// value is inert and unqueued.
type Event struct {
	at  Time
	seq uint64 // FIFO tie-break for equal timestamps
	fn  func()
	// index is the heap position + 1 in the heap, -(ring slot + 1) on the
	// lane, and 0 when not queued, so Event{} is unqueued.
	index int
}

// At returns the simulated time the event fires at.
func (e *Event) At() Time { return e.at }

// Queued reports whether the event is currently in an engine's queue.
func (e *Event) Queued() bool { return e.index != 0 }

// Laned reports whether the event is queued on an engine's FIFO lane
// rather than in its heap, so tests can check which path a timer took.
func (e *Event) Laned() bool { return e.index < 0 }

// before reports whether e fires before o in the total order (at, seq).
func (e *Event) before(o *Event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is the pending-event set: a container/heap min-heap in the
// total order (at, seq).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool { return h[i].before(h[j]) }

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i + 1
	h[j].index = j + 1
}

func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	*h = append(*h, ev)
	ev.index = len(*h)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = 0
	*h = old[:n-1]
	return ev
}

// Engine is a discrete-event simulator. Create one with NewEngine.
//
// Its queue is two priority queues in the one order (at, seq): a heap,
// and a FIFO lane of appended events whose times never decrease, so the
// lane's oldest entry is its minimum. The next event is the earlier of
// the heap's top and the lane's head.
type Engine struct {
	now   Time
	queue eventHeap
	// lane is a ring of appended events from laneHead on, laneN slots
	// long; a removed event leaves a nil tombstone in its slot.
	lane     []*Event
	laneHead int
	laneN    int
	laneLive int  // events queued on the lane
	laneLast Time // the latest time ever appended: the lane's admission bound
	seq      uint64
	fired    uint64 // events executed (for diagnostics and loop guards)
	limit    uint64 // safety cap on executed events; 0 means unlimited
	running  bool
	commits  []func() // run after each dispatched callback returns
}

// NewEngine returns an engine with the clock at 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// SetEventLimit caps the number of events Run will execute: once n have
// run, Run returns an error instead of dispatching another. Zero disables
// the cap.
func (e *Engine) SetEventLimit(n uint64) { e.limit = n }

// AddCommitHook registers fn to run after every dispatched event callback
// returns, still at the callback's timestamp, and before Run or Step
// picks the next event. Work that must complete before the clock can
// advance hangs off this hook: the flow network's one max-min solve per
// churning event, which queues its completion events, and batched
// observability emission. Hooks run in registration order and must not
// unregister.
func (e *Engine) AddCommitHook(fn func()) {
	if fn == nil {
		panic("sim: nil commit hook")
	}
	e.commits = append(e.commits, fn)
}

// Schedule queues fn to run once at absolute time at, on a fresh event
// that no caller holds: a timer that may move or be dropped is an
// embedded Event driven by Reschedule. Scheduling in the past (before
// Now) panics: it is always a logic error in a causal simulation.
func (e *Engine) Schedule(at Time, fn func()) {
	e.Reschedule(&Event{}, at, fn)
}

// After queues fn to run once d seconds from now. Negative d panics.
func (e *Engine) After(d Duration, fn func()) {
	e.Schedule(e.now+Time(d), fn)
}

// Reschedule (re)queues the caller-owned event ev to fire fn at absolute
// time at, moving it within the queue if currently pending. It allocates
// nothing: hot paths embed an Event value and move it instead of
// scheduling fresh events. The event gets a new FIFO sequence number,
// exactly as if it had been removed and scheduled anew.
func (e *Engine) Reschedule(ev *Event, at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule with nil callback")
	}
	if p := e.laneSlot(ev); p >= 0 {
		e.dropLane(p) // the lane admits only in time order: move via the heap
	}
	i := e.slot(ev)
	ev.at, ev.seq, ev.fn = at, e.seq, fn
	e.seq++
	if i >= 0 {
		heap.Fix(&e.queue, i) // still queued: one sift moves it to its new key
	} else {
		heap.Push(&e.queue, ev)
	}
}

// Append queues the unqueued caller-owned event ev to fire fn at absolute
// time at on the engine's FIFO lane: O(1), with no heap sift. It takes
// the next sequence number exactly as Reschedule does, so the dispatch
// order is the same. It suits a recurring timer with a fixed period,
// whose next time is never earlier than any time appended before. When
// ev is queued, or at is earlier than a time already appended, Append
// falls back to Reschedule, so no call can break the lane's order.
func (e *Engine) Append(ev *Event, at Time, fn func()) {
	if ev.index != 0 || !(at >= e.laneLast) || at < e.now || fn == nil {
		e.Reschedule(ev, at, fn)
		return
	}
	if e.laneN == len(e.lane) {
		e.resizeLane()
	}
	p := e.laneHead + e.laneN
	if p >= len(e.lane) {
		p -= len(e.lane)
	}
	e.lane[p] = ev
	e.laneN++
	e.laneLive++
	e.laneLast = at
	ev.at, ev.seq, ev.fn, ev.index = at, e.seq, fn, -(p + 1)
	e.seq++
}

// resizeLane moves the lane's queued events, in order and without the
// tombstones, to the front of a fresh ring with as many free slots again
// (16 slots at least). At least half the ring is free after a resize, so
// the next one visits at most twice the appends made in between, and the
// ring never outgrows twice the lane's peak.
func (e *Engine) resizeLane() {
	ring := make([]*Event, max(16, 2*e.laneLive))
	n := 0
	for p, i := e.laneHead, 0; i < e.laneN; i++ {
		if ev := e.lane[p]; ev != nil {
			ring[n] = ev
			n++
			ev.index = -n
		}
		if p++; p == len(e.lane) {
			p = 0
		}
	}
	e.lane, e.laneHead, e.laneN = ring, 0, n
}

// Remove drops ev from the queue, so its callback never runs. Removing an
// unqueued or nil event is a no-op.
func (e *Engine) Remove(ev *Event) {
	if ev == nil {
		return
	}
	if i := e.slot(ev); i >= 0 {
		heap.Remove(&e.queue, i)
	} else if p := e.laneSlot(ev); p >= 0 {
		e.dropLane(p)
	}
}

// slot returns ev's position in this engine's heap, or -1 when it is
// not in the heap here.
func (e *Engine) slot(ev *Event) int {
	i := ev.index - 1
	if i < 0 || i >= len(e.queue) || e.queue[i] != ev {
		return -1
	}
	return i
}

// laneSlot returns ev's ring slot on this engine's lane, or -1 when it is
// not on the lane here.
func (e *Engine) laneSlot(ev *Event) int {
	p := -ev.index - 1
	if p < 0 || p >= len(e.lane) || e.lane[p] != ev {
		return -1
	}
	return p
}

// dropLane dequeues the event in ring slot p, leaving a tombstone that
// next skips.
func (e *Engine) dropLane(p int) {
	e.lane[p].index = 0
	e.lane[p] = nil
	e.laneLive--
}

// next returns the earliest queued event, or nil when none is queued:
// the earlier of the heap's top and the lane's first live entry.
func (e *Engine) next() *Event {
	for e.laneN > 0 && e.lane[e.laneHead] == nil {
		e.laneN--
		if e.laneHead++; e.laneHead == len(e.lane) {
			e.laneHead = 0
		}
	}
	var ev *Event
	if e.laneN > 0 {
		ev = e.lane[e.laneHead]
	}
	if len(e.queue) > 0 && (ev == nil || e.queue[0].before(ev)) {
		ev = e.queue[0]
	}
	return ev
}

// pop dequeues ev, the event next returned, and dispatches it.
func (e *Engine) pop(ev *Event) {
	if ev.index > 0 {
		heap.Pop(&e.queue)
	} else {
		e.dropLane(e.laneHead)
	}
	e.dispatch(ev)
}

// dispatch advances the clock to ev, runs its callback, and then the
// commit hooks.
func (e *Engine) dispatch(ev *Event) {
	e.now = ev.at
	e.fired++
	ev.fn()
	for _, c := range e.commits {
		c()
	}
}

// Step executes the single earliest pending event. It reports whether an
// event ran. Commit hooks run before the pop: work deferred by calls made
// outside any event dispatch (e.g. flows started before the run) must
// materialize before the next event is chosen.
func (e *Engine) Step() bool {
	for _, c := range e.commits {
		c()
	}
	ev := e.next()
	if ev == nil {
		return false
	}
	e.pop(ev)
	return true
}

// Run executes events until the queue drains or the clock passes until.
// It returns the final clock value. If an event limit is set and another
// event is due once it is reached, Run returns an error identifying the
// runaway.
func (e *Engine) Run(until Time) (Time, error) {
	if e.running {
		return e.now, fmt.Errorf("sim: Run called reentrantly at t=%v", e.now)
	}
	e.running = true
	defer func() { e.running = false }()
	// Materialize work deferred by calls made before the run (commit hooks
	// also run after every dispatch, so mid-run the queue is always
	// current).
	for _, c := range e.commits {
		c()
	}
	ev := e.next()
	for ; ev != nil && ev.at <= until; ev = e.next() {
		if e.limit > 0 && e.fired >= e.limit {
			return e.now, fmt.Errorf("sim: event limit %d exceeded at t=%v", e.limit, e.now)
		}
		e.pop(ev)
	}
	if until < Infinity && e.now < until && ev == nil {
		// Advance the clock to the horizon so periodic processes resumed
		// by the caller observe a consistent notion of "now".
		e.now = until
	}
	return e.now, nil
}
