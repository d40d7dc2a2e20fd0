// Package lint assembles the schedlint analyzer suite: the static
// contracts the simulator's determinism, concurrency, and persistence
// guarantees rest on. See DESIGN.md §12 for the original determinism
// contracts and §17 for the concurrency/persistence vocabulary the v2
// analyzers enforce.
package lint

import (
	"mapsched/internal/lint/analysis"
	"mapsched/internal/lint/deltajournal"
	"mapsched/internal/lint/epochbump"
	"mapsched/internal/lint/errcmp"
	"mapsched/internal/lint/funnel"
	"mapsched/internal/lint/lockheld"
	"mapsched/internal/lint/nodeterminism"
	"mapsched/internal/lint/obsvocab"
	"mapsched/internal/lint/optflag"
	"mapsched/internal/lint/poolreset"
	"mapsched/internal/lint/snapshotfree"
)

// Analyzers returns the full schedlint suite in a fixed order: the
// five determinism/cache contracts first, then the four
// concurrency/persistence contracts added with the crash-safe
// placement service, then the task-state funnel contract.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		nodeterminism.Analyzer,
		epochbump.Analyzer,
		poolreset.Analyzer,
		obsvocab.Analyzer,
		optflag.Analyzer,
		lockheld.Analyzer,
		snapshotfree.Analyzer,
		deltajournal.Analyzer,
		errcmp.Analyzer,
		funnel.Analyzer,
	}
}
