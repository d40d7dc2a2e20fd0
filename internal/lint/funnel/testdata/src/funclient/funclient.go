// Package funclient writes fun's funnel fields from outside fun: the
// diagnostics depend on the fact fun exports, and a //lint:funnel
// function here gains no licence over a foreign field.
package funclient

import "fun"

func finish(t *fun.Task) {
	t.Finish() // through the funnel: fine
	t.Node = 3 // not a funnel field
}

func stray(t *fun.Task) {
	t.State = 2 // want `write to //lint:funnel field "State" of Task outside its funnel`
}

// foreignFunnel carries the marker, but the field belongs to fun.
//
//lint:funnel
func foreignFunnel(g *fun.Group) {
	g.Done-- // want `write to //lint:funnel field "Done" of Group outside its funnel`
}

type wrapper struct{ task fun.Task }

func (w *wrapper) stray() {
	w.task.State = 1 // want `write to //lint:funnel field "State" of Task outside its funnel`
}
