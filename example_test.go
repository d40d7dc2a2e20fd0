package mapsched_test

import (
	"fmt"

	"mapsched"
)

// Run the paper's Grep batch (scaled down) on a small cluster under the
// probabilistic network-aware scheduler.
func ExampleNew() {
	cfg := mapsched.DefaultClusterConfig()
	cfg.Topology.NodesPerRack = 12
	cfg.Seed = 1

	sim, err := mapsched.New(cfg, mapsched.Batch(mapsched.Grep),
		mapsched.SchedulerProbabilistic, mapsched.WithScale(40))
	if err != nil {
		panic(err)
	}
	res, err := sim.Run()
	if err != nil {
		panic(err)
	}
	fmt.Printf("jobs finished: %d/%d\n", len(res.Jobs)-res.Unfinished, len(res.Jobs))
	fmt.Printf("every map task recorded: %v\n", res.MapLocality.Total() > 0)
	// Output:
	// jobs finished: 10/10
	// every map task recorded: true
}

// Compare the three schedulers of the paper's evaluation on one batch.
func ExampleNew_comparison() {
	cfg := mapsched.DefaultClusterConfig()
	cfg.Topology.NodesPerRack = 12
	cfg.Seed = 1

	for _, k := range []mapsched.SchedulerKind{
		mapsched.SchedulerProbabilistic,
		mapsched.SchedulerCoupling,
		mapsched.SchedulerFair,
	} {
		sim, err := mapsched.New(cfg, mapsched.Batch(mapsched.Terasort), k, mapsched.WithScale(40))
		if err != nil {
			panic(err)
		}
		res, err := sim.Run()
		if err != nil {
			panic(err)
		}
		fmt.Printf("%v: %d jobs done\n", k, len(res.Jobs)-res.Unfinished)
	}
	// Output:
	// Probabilistic: 10 jobs done
	// Coupling: 10 jobs done
	// Fair: 10 jobs done
}

// Drive the placement decision service standalone: no simulation run,
// no simulated clock — the caller owns the control loop, asks for
// decisions with their Formula 1-5 breakdown, and applies cluster-state
// deltas explicitly.
func ExamplePlacementService() {
	cfg := mapsched.DefaultClusterConfig()
	cfg.Topology.Racks = 2
	cfg.Topology.NodesPerRack = 4
	cfg.Seed = 1

	svc, err := mapsched.NewPlacementService(cfg,
		mapsched.Batch(mapsched.Wordcount)[:1],
		mapsched.WithScale(40), mapsched.WithDeterministic())
	if err != nil {
		panic(err)
	}

	// Offer a free map slot on node 0 and commit the decision.
	d := svc.DecideMap(0, 0)
	fmt.Printf("map %d on node %d: draw=%s C=%.0f P=%.2f\n",
		d.Task, d.Node, d.Draw, d.C, d.P)
	if err := svc.Commit(d); err != nil {
		panic(err)
	}

	// The cluster changes under the service: node 3 goes offline.
	if err := svc.SetNodeOffline(3, true); err != nil {
		panic(err)
	}

	// Finish the running map; reduce decisions see its progress.
	if err := svc.Complete(d); err != nil {
		panic(err)
	}
	r := svc.DecideReduce(10, 1)
	fmt.Printf("reduce assigned: %v (draw=%s)\n", r.Assigned, r.Draw)
	fmt.Printf("deltas applied: %d\n", svc.Epoch())
	// Output:
	// map 0 on node 0: draw=local C=0 P=1.00
	// reduce assigned: true (draw=deterministic)
	// deltas applied: 3
}
