// Quickstart: run the paper's 10-job Wordcount batch on a simulated
// 60-node cluster under the probabilistic network-aware scheduler and
// print the job-completion statistics.
package main

import (
	"fmt"
	"log"

	"mapsched"
)

func main() {
	cfg := mapsched.DefaultClusterConfig()
	cfg.Seed = 1 // identical seeds give bit-identical runs

	sim, err := mapsched.New(cfg, mapsched.Batch(mapsched.Wordcount),
		mapsched.SchedulerProbabilistic,
		mapsched.WithScale(6), // scale the 10-100 GB inputs down 6x
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}

	cdf := res.JobCompletionCDF()
	fmt.Printf("scheduler: %s\n", res.Scheduler)
	fmt.Printf("all %d jobs finished; makespan %.1fs\n", len(res.Jobs), res.Makespan)
	fmt.Printf("job completion time: mean %.1fs, p50 %.1fs, p90 %.1fs, max %.1fs\n",
		cdf.Mean(), cdf.Quantile(0.5), cdf.Quantile(0.9), cdf.Max())
	fmt.Printf("map locality: %.1f%% of map tasks ran on a node holding their block\n",
		res.MapLocality.PercentNode())

	fmt.Println("\nper-job completion:")
	for _, j := range res.Jobs {
		fmt.Printf("  %-18s %6.1fs  (%d maps, %d reduces)\n",
			j.Name, j.Completion, j.NumMaps, j.NumReduces)
	}
}
