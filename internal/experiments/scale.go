package experiments

import (
	"fmt"

	"mapsched/internal/core"
	"mapsched/internal/metrics"
	"mapsched/internal/workload"
)

// ScaleSize is one rung of the cluster-size sweep: racks × nodes-per-rack
// gives the node count. Nodes-per-rack is held constant so the number of
// racks grows linearly with the cluster while staying two orders of
// magnitude below the node count — the regime the rack-collapsed cost
// sums are built for.
type ScaleSize struct {
	Racks        int
	NodesPerRack int
}

// Nodes returns the cluster size of the rung.
func (z ScaleSize) Nodes() int { return z.Racks * z.NodesPerRack }

// ScaleSizes returns the default sweep grid, 100 → 5000 nodes at 20
// nodes per rack (the ROADMAP's production-scale north star).
func ScaleSizes() []ScaleSize {
	return []ScaleSize{
		{Racks: 5, NodesPerRack: 20},
		{Racks: 25, NodesPerRack: 20},
		{Racks: 50, NodesPerRack: 20},
		{Racks: 100, NodesPerRack: 20},
		{Racks: 250, NodesPerRack: 20},
	}
}

// ScalePoint is one (cluster size, scheduler) cell of the sweep.
type ScalePoint struct {
	Nodes        int
	Racks        int
	Scheduler    string
	MeanJCT      float64 // over finished jobs
	Makespan     float64
	NodeLocalPct float64 // map tasks reading their block locally
	Unfinished   int
	Events       uint64 // simulator events executed
}

// ScaleSweep runs the Wordcount batch under every scheduler across the
// cluster-size grid. Distances are hop-mode so the cost sums collapse per
// rack and the rack-aggregated selection path carries the per-offer work; cross-traffic is off since background flows
// at thousands of nodes would swamp the run without informing the sweep.
// The workload is held fixed while the cluster grows (strong scaling):
// the sweep shows the schedulers' placement quality and the simulation's
// event volume as functions of cluster size, while the wall-clock
// trajectory of the selection path itself is timed by cmd/mrbench's
// batch5k workload. All (size × scheduler) cells run in
// parallel and every simulation is self-contained, so the output is
// identical for any -workers count.
func ScaleSweep(s Setup, grid []ScaleSize) ([]ScalePoint, error) {
	if len(grid) == 0 {
		grid = ScaleSizes()
	}
	s.Engine.CostMode = core.ModeHops
	s.Engine.CrossTraffic = 0
	kinds := SchedulerKinds()
	return runParallel(len(grid)*len(kinds), func(i int) (ScalePoint, error) {
		z, k := grid[i/len(kinds)], kinds[i%len(kinds)]
		sp := s
		sp.Engine.Topology.Racks = z.Racks
		sp.Engine.Topology.NodesPerRack = z.NodesPerRack
		res, err := sp.RunBatch(workload.Wordcount, sp.BuilderFor(k))
		if err != nil {
			return ScalePoint{}, fmt.Errorf("%d nodes under %v: %w", z.Nodes(), k, err)
		}
		return ScalePoint{
			Nodes:        z.Nodes(),
			Racks:        z.Racks,
			Scheduler:    k.String(),
			MeanJCT:      res.JobCompletionCDF().Mean(),
			Makespan:     res.Makespan,
			NodeLocalPct: res.MapLocality.PercentNode(),
			Unfinished:   res.Unfinished,
			Events:       res.Events,
		}, nil
	})
}

// ScaleReport renders the sweep as a per-(size, scheduler) table.
func ScaleReport(points []ScalePoint) Report {
	t := metrics.NewTable("Nodes", "Racks", "Scheduler", "Mean JCT", "Makespan", "Node-local %", "Unfinished", "Events")
	for _, p := range points {
		t.AddRow(p.Nodes, p.Racks, p.Scheduler,
			fmt.Sprintf("%.1fs", p.MeanJCT), fmt.Sprintf("%.1fs", p.Makespan),
			fmt.Sprintf("%.1f", p.NodeLocalPct), p.Unfinished, p.Events)
	}
	return Report{
		ID:    "scale",
		Title: "Cluster-size sweep (Wordcount, hop distances, fixed workload)",
		Body:  t.String(),
	}
}
