// Pmin tuning: reproduce the paper's threshold-selection procedure
// (Section III): "we ran 10 Wordcount jobs together several times with
// different P_min values and picked the highest P_min value at the time
// when all jobs finished successfully. Accordingly, we set P_min to 0.4."
//
// High thresholds make the scheduler reject so many slot offers that jobs
// stall past the deadline; the sweep finds the largest threshold that
// still completes the batch.
package main

import (
	"fmt"
	"log"

	"mapsched"
)

func main() {
	cfg := mapsched.DefaultClusterConfig()
	cfg.MaxSimTime = 400 // deadline: a batch must finish within this horizon
	cfg.Seed = 5

	fmt.Println("Pmin sweep over the 10-job Wordcount batch (deadline 400s simulated)")
	fmt.Printf("%6s %12s %12s\n", "Pmin", "mean JCT", "unfinished")
	best := -1.0
	for _, pmin := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		sim, err := mapsched.New(cfg, mapsched.Batch(mapsched.Wordcount),
			mapsched.SchedulerProbabilistic,
			mapsched.WithScale(12),
			mapsched.WithPmin(pmin),
		)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			log.Fatal(err)
		}
		mean := "-"
		if cdf := res.JobCompletionCDF(); cdf.N() > 0 {
			mean = fmt.Sprintf("%.1fs", cdf.Mean())
		}
		fmt.Printf("%6.1f %12s %12d\n", pmin, mean, res.Unfinished)
		if res.Unfinished == 0 && pmin > best {
			best = pmin
		}
	}
	fmt.Printf("\nhighest Pmin with all jobs finished: %.1f (the paper picked 0.4)\n", best)
}
