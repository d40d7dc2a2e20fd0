// Package c imports only b and reaches a's types through b's API, so
// each finding here needs a fact that reaches c through b's fact file.
package c

import "vetfacts/b"

// Misuse writes each of a's marked fields outside its contract.
func Misuse() {
	store, task, snap := b.Parts()
	store.Count++
	task.State = 1
	snap.Version = 2
}
