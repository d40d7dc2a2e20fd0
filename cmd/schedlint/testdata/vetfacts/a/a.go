// Package a declares one object per fact-carrying marker: a sentinel
// error, a guarded field, a funnel field and an immutable type.
package a

import (
	"errors"
	"sync"
)

//lint:sentinel
var ErrGone = errors.New("gone")

// Store's Count is guarded by its Mu.
type Store struct {
	Mu    sync.Mutex
	Count int //lint:guarded Mu
}

// Add writes Count under the lock.
func (s *Store) Add(n int) {
	s.Mu.Lock()
	s.Count += n
	s.Mu.Unlock()
}

// Task's State is written only by its funnel.
type Task struct {
	State int //lint:funnel
}

// Finish is the funnel.
//
//lint:funnel
func (t *Task) Finish() { t.State = 2 }

// Snapshot is frozen once published.
//
//lint:immutable-after-publish
type Snapshot struct {
	Version int
}

// NewSnapshot is its constructor.
func NewSnapshot(v int) *Snapshot { return &Snapshot{Version: v} }
