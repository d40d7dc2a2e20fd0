//go:build race

package placement

// raceEnabled reports whether the race detector is on; its
// instrumentation changes some allocation counts.
const raceEnabled = true
