// Shuffle-heavy comparison: the scenario from the paper's introduction —
// shuffle-intensive analytics jobs on a busy shared cluster, where the
// placement of reduce tasks decides how much intermediate data crosses
// contended links. Runs the Wordcount batch (selectivity > 1) under all
// three schedulers with background cross-traffic and compares completion
// times, locality and network volume.
package main

import (
	"fmt"
	"log"

	"mapsched"
)

func main() {
	cfg := mapsched.DefaultClusterConfig()
	cfg.Seed = 7
	// A busy shared platform: other tenants' flows occupy parts of the
	// fabric, so effective per-node bandwidth is heterogeneous, and the
	// probabilistic scheduler costs paths by their observed rates.
	cfg.CrossTraffic = 30
	cfg.CostMode = mapsched.ModeNetworkCondition
	kinds := []mapsched.SchedulerKind{
		mapsched.SchedulerProbabilistic,
		mapsched.SchedulerCoupling,
		mapsched.SchedulerFair,
	}

	fmt.Println("Wordcount batch (shuffle-heavy), 60 nodes, 30 cross-traffic flows")
	fmt.Printf("%-16s %10s %10s %10s %12s %14s\n",
		"scheduler", "mean JCT", "p90 JCT", "max JCT", "local maps", "shuffle GB")
	for _, k := range kinds {
		sim, err := mapsched.New(cfg, mapsched.Batch(mapsched.Wordcount), k,
			mapsched.WithScale(6),
		)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			log.Fatal(err)
		}
		cdf := res.JobCompletionCDF()
		fmt.Printf("%-16v %9.1fs %9.1fs %9.1fs %11.1f%% %13.1f\n",
			k, cdf.Mean(), cdf.Quantile(0.9), cdf.Max(),
			res.MapLocality.PercentNode(), res.ShuffleRemoteBytes/1e9)
	}
	fmt.Println("\nLower completion times with comparable locality indicate better")
	fmt.Println("network-aware placement of reduce tasks (Section III-A of the paper).")
}
