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
// Event value and drive it with Reschedule and Remove. The zero value is
// inert and unqueued.
type Event struct {
	at    Time
	seq   uint64 // FIFO tie-break for equal timestamps
	fn    func()
	index int // heap position + 1; 0 when not queued, so Event{} is unqueued
}

// At returns the simulated time the event fires at.
func (e *Event) At() Time { return e.at }

// Queued reports whether the event is currently in an engine's queue.
func (e *Event) Queued() bool { return e.index > 0 }

// eventHeap is the pending-event set: a container/heap min-heap in the
// total order (at, seq).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

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
type Engine struct {
	now     Time
	queue   eventHeap
	seq     uint64
	fired   uint64 // events executed (for diagnostics and loop guards)
	limit   uint64 // safety cap on executed events; 0 means unlimited
	running bool
	commits []func() // run after each dispatched callback returns
}

// NewEngine returns an engine with the clock at 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// SetEventLimit caps the number of events Run will execute; exceeding the
// cap makes Run return an error. Zero disables the cap.
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
	i := e.slot(ev)
	ev.at, ev.seq, ev.fn = at, e.seq, fn
	e.seq++
	if i >= 0 {
		heap.Fix(&e.queue, i) // still queued: one sift moves it to its new key
	} else {
		heap.Push(&e.queue, ev)
	}
}

// Remove drops ev from the queue, so its callback never runs. Removing an
// unqueued or nil event is a no-op.
func (e *Engine) Remove(ev *Event) {
	if ev == nil {
		return
	}
	if i := e.slot(ev); i >= 0 {
		heap.Remove(&e.queue, i)
	}
}

// slot returns ev's position in this engine's queue, or -1 when it is
// not queued here.
func (e *Engine) slot(ev *Event) int {
	i := ev.index - 1
	if i < 0 || i >= len(e.queue) || e.queue[i] != ev {
		return -1
	}
	return i
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
	if len(e.queue) == 0 {
		return false
	}
	e.dispatch(heap.Pop(&e.queue).(*Event))
	return true
}

// Run executes events until the queue drains or the clock passes until.
// It returns the final clock value. If an event limit is set and exceeded,
// Run returns an error identifying the runaway.
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
	for len(e.queue) > 0 && e.queue[0].at <= until {
		e.dispatch(heap.Pop(&e.queue).(*Event))
		if e.limit > 0 && e.fired > e.limit {
			return e.now, fmt.Errorf("sim: event limit %d exceeded at t=%v", e.limit, e.now)
		}
	}
	if until < Infinity && e.now < until && len(e.queue) == 0 {
		// Advance the clock to the horizon so periodic processes resumed
		// by the caller observe a consistent notion of "now".
		e.now = until
	}
	return e.now, nil
}
