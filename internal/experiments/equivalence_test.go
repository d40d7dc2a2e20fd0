package experiments

import (
	"reflect"
	"testing"
)

// TestParallelComparisonIsDeterministic runs the full three-scheduler ×
// three-batch comparison twice through the parallel harness and requires
// byte-identical merged results: concurrency must not leak into any
// simulation.
func TestParallelComparisonIsDeterministic(t *testing.T) {
	s := DefaultSetup()
	s.Workload.Scale = 12
	s.Engine.Seed = 3
	a, err := s.RunComparison()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.RunComparison()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range SchedulerKinds() {
		if !reflect.DeepEqual(a.Results[k], b.Results[k]) {
			t.Fatalf("%v results differ between identical parallel runs", k)
		}
	}
}
