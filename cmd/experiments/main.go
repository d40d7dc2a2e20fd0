// Command experiments regenerates the tables and figures of the paper's
// evaluation (Section III) on the simulated testbed.
//
// Usage:
//
//	experiments [-run all|tableII|fig3|fig4|fig5|fig6|tableIII|fig7|util|pmin|ablations|faultsweep|opensys|scale]
//	            [-scale N] [-seed N] [-pmin P] [-workers N] [-sizes N,N,...]
//
// -scale divides workload sizes and task counts; 1 reproduces Table II's
// exact task counts (slow), 3 is the canonical setting used for
// EXPERIMENTS.md, 12 is a quick smoke run. -workers bounds how many
// simulations run concurrently (default GOMAXPROCS); results are
// identical for any worker count since every simulation is independent
// and deterministic in its seed.
//
// Wall-clock timing below is progress reporting only and goes to
// stderr exclusively: stdout carries nothing but the deterministic
// experiment tables, so two runs with the same seed stay diffable.
//
//lint:allow nodeterminism wall-clock progress timing, stderr only
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mapsched/internal/experiments"
)

func main() {
	var (
		run     = flag.String("run", "all", "experiment to run")
		scale   = flag.Int("scale", 3, "workload scale divisor (1 = exact Table II counts)")
		seed    = flag.Int64("seed", 1, "simulation seed")
		pmin    = flag.Float64("pmin", 0.4, "probability threshold P_min")
		workers = flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		sizes   = flag.String("sizes", "", "scale sweep cluster sizes, comma-separated node counts (multiples of 20; empty = 100,500,1000,2000,5000)")
	)
	flag.Parse()

	if *workers > 0 {
		experiments.SetMaxWorkers(*workers)
	}
	s := experiments.DefaultSetup()
	s.Workload.Scale = *scale
	s.Engine.Seed = *seed
	s.Pmin = *pmin

	grid, err := parseSizes(*sizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	if err := runExperiments(s, *run, grid); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// parseSizes turns "-sizes 100,500" into the sweep grid at 20 nodes per
// rack (the grid's fixed rack width); an empty string keeps the default.
func parseSizes(s string) ([]experiments.ScaleSize, error) {
	if s == "" {
		return nil, nil
	}
	var grid []experiments.ScaleSize
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -sizes entry %q: %w", part, err)
		}
		if n < 20 || n%20 != 0 {
			return nil, fmt.Errorf("-sizes entry %d must be a positive multiple of 20", n)
		}
		grid = append(grid, experiments.ScaleSize{Racks: n / 20, NodesPerRack: 20})
	}
	return grid, nil
}

func runExperiments(s experiments.Setup, which string, sizes []experiments.ScaleSize) error {
	// Static reports need no simulation.
	switch which {
	case "tableII":
		fmt.Println(experiments.TableIIReport())
		return nil
	case "fig3":
		fmt.Println(experiments.Fig3().Report())
		return nil
	case "pmin":
		return runPmin(s)
	case "ablations":
		return runAblations(s)
	case "models":
		pts, err := experiments.ModelComparison(s)
		if err != nil {
			return err
		}
		fmt.Println(experiments.AblationReport("models", "Probability-model comparison (Section V future work)", pts))
		return nil
	case "extended":
		pts, err := experiments.ExtendedComparison(s)
		if err != nil {
			return err
		}
		fmt.Println(experiments.AblationReport("extended", "Extended scheduler comparison (incl. LARTS, Capacity)", pts))
		return nil
	case "faults":
		pts, err := experiments.FaultTolerance(s)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FaultReport(pts))
		return nil
	case "faultsweep":
		pts, err := experiments.FaultSweep(s, nil)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FaultSweepReport(pts))
		return nil
	case "opensys":
		start := time.Now()
		pts, err := experiments.OpenSweep(s, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "open-system sweep done in %s\n", time.Since(start).Truncate(time.Millisecond))
		fmt.Println(experiments.OpenSweepReport(pts))
		return nil
	case "scale":
		start := time.Now()
		pts, err := experiments.ScaleSweep(s, sizes)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "scale sweep done in %s\n", time.Since(start).Truncate(time.Millisecond))
		fmt.Println(experiments.ScaleReport(pts))
		return nil
	case "jobpolicy":
		pts, err := experiments.JobPolicyComparison(s)
		if err != nil {
			return err
		}
		fmt.Println(experiments.AblationReport("jobpolicy", "Job-level policy: fair vs FIFO (Section II-A)", pts))
		return nil
	case "seeds":
		rep, err := experiments.SeedStudy(s, []int64{1, 2, 3, 4})
		if err != nil {
			return err
		}
		fmt.Println(rep)
		return nil
	case "analysis":
		rep, err := experiments.AnalysisReport(s.Engine.Topology.Racks * s.Engine.Topology.NodesPerRack)
		if err != nil {
			return err
		}
		fmt.Println(rep)
		return nil
	}

	needCmp := map[string]bool{
		"all": true, "fig4": true, "fig5": true, "fig6": true,
		"tableIII": true, "fig7": true, "util": true,
	}
	if !needCmp[which] {
		return fmt.Errorf("unknown experiment %q", which)
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "running 3 schedulers x 3 batches at scale %d (seed %d)...\n",
		s.Workload.Scale, s.Engine.Seed)
	c, err := s.RunComparison()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "simulation done in %s\n\n", time.Since(start).Truncate(time.Millisecond))

	emit := func(id string, rep experiments.Report) {
		if which == "all" || which == id {
			fmt.Println(rep)
		}
	}
	if which == "all" {
		fmt.Println(experiments.TableIIReport())
		fmt.Println(experiments.Fig3().Report())
	}
	emit("fig4", experiments.Fig4Report(c))
	emit("fig5", experiments.Fig5(c).Report())
	emit("fig6", experiments.Fig6Report(c))
	emit("tableIII", experiments.TableIII(c).Report())
	emit("fig7", experiments.Fig7(c).Report())
	emit("util", experiments.Utilization(c).Report())
	if which == "all" {
		if err := runPmin(s); err != nil {
			return err
		}
		if err := runAblations(s); err != nil {
			return err
		}
		pts, err := experiments.ModelComparison(s)
		if err != nil {
			return err
		}
		fmt.Println(experiments.AblationReport("models", "Probability-model comparison (Section V future work)", pts))
		ext, err := experiments.ExtendedComparison(s)
		if err != nil {
			return err
		}
		fmt.Println(experiments.AblationReport("extended", "Extended scheduler comparison (incl. LARTS, Capacity)", ext))
		fp, err := experiments.FaultTolerance(s)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FaultReport(fp))
		rep, err := experiments.AnalysisReport(s.Engine.Topology.Racks * s.Engine.Topology.NodesPerRack)
		if err != nil {
			return err
		}
		fmt.Println(rep)
	}
	return nil
}

func runPmin(s experiments.Setup) error {
	pts, err := experiments.PminSweep(s, []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9})
	if err != nil {
		return err
	}
	fmt.Println(experiments.PminReport(pts))
	return nil
}

func runAblations(s experiments.Setup) error {
	reports, err := experiments.AblationReports(s)
	if err != nil {
		return err
	}
	for _, r := range reports {
		fmt.Println(r)
	}
	return nil
}
