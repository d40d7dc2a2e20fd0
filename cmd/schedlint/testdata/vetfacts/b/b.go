// Package b imports a and hands a's marked types on to c.
package b

import "vetfacts/a"

// Parts returns one value of each of a's marked types.
func Parts() (*a.Store, *a.Task, *a.Snapshot) {
	return &a.Store{}, &a.Task{}, a.NewSnapshot(1)
}

// Gone compares with a's sentinel by identity: the fixture's one
// finding with a suggested fix.
func Gone(err error) bool {
	return err == a.ErrGone
}
