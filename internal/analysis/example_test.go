package analysis_test

import (
	"fmt"

	"mapsched/internal/analysis"
	"mapsched/internal/core"
)

// A task with one data-local candidate and three remote ones: the
// probabilistic rule lands it on the local node most of the time, cutting
// the expected transmission cost well below random placement at a modest
// assignment delay.
func ExampleAccept() {
	costs := []float64{0, 200, 200, 200}
	a, err := analysis.Accept(costs, core.Exponential{}, 0.4)
	if err != nil {
		panic(err)
	}
	fmt.Printf("expected cost:   %.1f (random: %.1f)\n", a.ExpectedCost(), a.Avg)
	fmt.Printf("expected offers: %.2f\n", a.ExpectedOffers())
	fmt.Printf("saving:          %.0f%%\n", 100*a.Saving())
	// Output:
	// expected cost:   122.6 (random: 150.0)
	// expected offers: 1.55
	// saving:          18%
}
