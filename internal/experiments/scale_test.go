package experiments

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// smokeGrid is the CI-sized scale sweep: big enough to cross a rack
// boundary and exercise the rack-collapsed selection path, small enough
// to stay test-sized.
func smokeGrid() []ScaleSize {
	return []ScaleSize{{Racks: 2, NodesPerRack: 20}, {Racks: 4, NodesPerRack: 20}}
}

func TestScaleSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale sweep in -short mode")
	}
	pts, err := ScaleSweep(fastSetup(), smokeGrid())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(smokeGrid()) * len(SchedulerKinds()); len(pts) != want {
		t.Fatalf("%d scale points, want %d", len(pts), want)
	}
	for _, p := range pts {
		if p.Unfinished != 0 {
			t.Fatalf("%s at %d nodes left %d jobs unfinished", p.Scheduler, p.Nodes, p.Unfinished)
		}
		if p.MeanJCT <= 0 || p.Makespan <= 0 || p.Events == 0 {
			t.Fatalf("degenerate point: %+v", p)
		}
	}
	rep := ScaleReport(pts)
	if !strings.Contains(rep.Body, "Probabilistic") || !strings.Contains(rep.Body, "80") {
		t.Fatalf("scale report malformed:\n%s", rep.Body)
	}
}

// TestScaleSweepWorkerInvariance pins the acceptance criterion that the
// sweep's output does not depend on the -workers fan-out: every cell is a
// self-contained deterministic simulation and results are assembled in
// grid order.
func TestScaleSweepWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("scale sweep in -short mode")
	}
	defer SetMaxWorkers(runtime.GOMAXPROCS(0))
	SetMaxWorkers(1)
	serial, err := ScaleSweep(fastSetup(), smokeGrid())
	if err != nil {
		t.Fatal(err)
	}
	SetMaxWorkers(4)
	parallel, err := ScaleSweep(fastSetup(), smokeGrid())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("scale sweep depends on worker count:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}
