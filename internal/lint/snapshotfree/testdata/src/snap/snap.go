// Package snap exercises the snapshotfree contract: constructors and
// //lint:publish sites may write, everything else may not, and value
// copies only protect scalar fields — never slice elements.
package snap

//lint:immutable-after-publish
type Avail struct {
	Nodes   []int
	Version int
}

// NewSnapshot is a constructor: declared in Avail's package and returns
// *Avail, so its writes are initialization, not mutation.
func NewSnapshot(n int) *Avail {
	a := &Avail{Nodes: make([]int, n)}
	for i := range a.Nodes {
		a.Nodes[i] = i
	}
	a.Version = 1
	return a
}

type holder struct{ avail *Avail }

// refreshLocked rebuilds the snapshot before republishing it.
//
//lint:publish Avail the rebuild runs under the writer lock before readers see it
func (h *holder) refreshLocked(n int) {
	h.avail.Version = n
}

func (h *holder) badWrite(n int) {
	h.avail.Version = n // want `write to field "Version" of immutable-after-publish type "Avail"`
}

func (h *holder) badElem(i, v int) {
	h.avail.Nodes[i] = v // want `element write through field "Nodes" of immutable-after-publish type "Avail"`
}

// Suppressed false positive: a scalar write into a plain value copy
// touches memory private to this frame.
func bump(a Avail) int {
	a.Version++
	return a.Version
}

// ...but an element write through a value copy still aliases the
// published backing array.
func badCopyElem(a Avail, v int) {
	a.Nodes[0] = v // want `element write through field "Nodes" of immutable-after-publish type "Avail"`
}

// Scoped escape hatch with a justification.
//
//lint:allow snapshotfree fixture-only teardown helper
func scrub(a *Avail) {
	a.Version = 0
}

// Set is a copy-on-write bitmap.
//
//lint:immutable-after-publish
type Set struct{ words []uint64 }

// With clones, flips and constructs: a constructor, writing only its clone.
func (s Set) With(i int) Set {
	words := append([]uint64(nil), s.words...)
	words[i/64] ^= 1 << (i % 64)
	return Set{words: words}
}

func (s Set) flipInPlace(i int) {
	s.words[i/64] ^= 1 << (i % 64) // want `element write through field "words" of immutable-after-publish type "Set"`
}
