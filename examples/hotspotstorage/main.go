// Hotspot storage: the regime the paper's introduction motivates —
// input data confined to a subset of nodes (NAS/SAN-style storage) in a
// multi-rack cluster, where coarse-grained locality scheduling breaks
// down and fine-grained transmission costs matter. Half the cluster holds
// all input blocks; tasks on the other half always read remotely, and the
// scheduler's choice of *which* remote node decides rack-crossing volume.
package main

import (
	"fmt"
	"log"

	"mapsched"
)

func main() {
	cfg := mapsched.DefaultClusterConfig()
	cfg.Topology.Racks = 4
	cfg.Topology.NodesPerRack = 15
	cfg.Seed = 3

	fmt.Println("Terasort batch on 4 racks x 15 nodes; all blocks on the first 30 nodes")
	fmt.Printf("%-16s %10s %10s %14s %14s\n",
		"scheduler", "mean JCT", "max JCT", "local maps", "remote tasks")
	for _, k := range []mapsched.SchedulerKind{
		mapsched.SchedulerProbabilistic,
		mapsched.SchedulerCoupling,
		mapsched.SchedulerFair,
	} {
		sim, err := mapsched.New(cfg, mapsched.Batch(mapsched.Terasort), k,
			mapsched.WithScale(6),
			mapsched.WithStorageSubset(30),
		)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			log.Fatal(err)
		}
		cdf := res.JobCompletionCDF()
		fmt.Printf("%-16v %9.1fs %9.1fs %13.1f%% %13.1f%%\n",
			k, cdf.Mean(), cdf.Max(),
			res.MapLocality.PercentNode(), res.MapLocality.PercentRemote())
	}
	fmt.Println("\nWith storage concentrated on half the nodes, schedulers that only")
	fmt.Println("distinguish node/rack/off-rack lose to fine-grained transmission costs.")
}
