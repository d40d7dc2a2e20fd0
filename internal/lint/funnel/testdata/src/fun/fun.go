// Package fun exercises the funnel contract: a //lint:funnel field is
// written only by the //lint:funnel functions of its package; every
// other write — assignment, compound assignment, increment, address —
// is flagged, while reads and composite literals pass.
package fun

type State int

type Task struct {
	Group *Group
	State State //lint:funnel
	Node  int
}

type Group struct {
	Tasks []*Task
	//lint:funnel the done count moves with Task.State
	Done    int
	pending int
}

// setState is the one writer of State.
//
//lint:funnel
func (t *Task) setState(s State) {
	t.Group.count(t.State, -1)
	t.Group.count(s, 1)
	t.State = s
}

// count moves the group's per-state counts.
//
//lint:funnel
func (g *Group) count(s State, d int) {
	switch s {
	case 0:
		g.pending += d
	case 2:
		g.Done += d
	}
}

// Finish goes through the funnel: no diagnostic.
func (t *Task) Finish() {
	t.setState(2)
	t.Node = -1 // not a funnel field
}

// NewTask builds with a composite literal: construction, not a write.
func NewTask(g *Group) *Task {
	return &Task{Group: g, State: 0, Node: -1}
}

// Pending only reads.
func (t *Task) Pending() bool { return t.State == 0 && t.Group.Done >= 0 }

func (t *Task) badAssign() {
	t.State = 2 // want `write to //lint:funnel field "State" of Task outside its funnel`
}

func (g *Group) badCount() {
	g.Done++    // want `write to //lint:funnel field "Done" of Group outside its funnel`
	g.Done += 2 // want `write to //lint:funnel field "Done" of Group outside its funnel`
}

func badTuple(t *Task) {
	t.Node, t.State = 1, 1 // want `write to //lint:funnel field "State" of Task outside its funnel`
}

func badAddress(t *Task) *State {
	return &t.State // want `write to //lint:funnel field "State" of Task outside its funnel`
}

func badClosure(ts []*Task) {
	each := func(f func(*Task)) {
		for _, t := range ts {
			f(t)
		}
	}
	each(func(t *Task) { (t.State) = 0 }) // want `write to //lint:funnel field "State" of Task outside its funnel`
}

// A scoped escape hatch with a justification.
//
//lint:allow funnel fixture-only reset that rebuilds the counts after
func scrub(t *Task) {
	t.State = 0
}
