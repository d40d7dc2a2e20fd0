// Command mrsim runs one simulated MapReduce batch under a chosen
// task-level scheduler and prints per-job and aggregate results.
//
// Usage:
//
//	mrsim [-sched probabilistic|coupling|fair] [-workload wordcount|terasort|grep]
//	      [-scale N] [-seed N] [-nodes N] [-racks N] [-pmin P]
//	      [-mode hops|netcond] [-crosstraffic N] [-v]
//	      [-faults SPEC] [-hb-expiry SECONDS]
//	      [-arrivals SPEC] [-tenants SPEC]
//	      [-trace FILE] [-events FILE] [-obs-summary]
//
// The -faults spec is semicolon-separated, e.g.
//
//	-faults 'crash:3@60;slow:7@30+120*2.5;link:4@10+40*0.1;taskfail:0.02'
//
// -arrivals switches from the fixed -workload batch to an open-system
// run with continuous Poisson arrivals over multi-tenant queues, e.g.
//
//	-arrivals 'horizon=600,warmup=60,maxactive=12,preempt=1' \
//	-tenants 'gold:weight=3,rate=0.05;besteffort:rate=0.02,cap=8'
//
// Exit codes: 0 on success, 1 on configuration or simulation errors,
// and 3 when the batch completed but one or more jobs failed
// permanently (Result.FailedJobs > 0) — so fault-sweep scripting can
// tell "the run broke" from "the run showed job loss".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mapsched"

	"mapsched/internal/metrics"
)

// exitFailedJobs is returned when the simulation finished but left
// permanently failed jobs behind.
const exitFailedJobs = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its edges cut for testing: args are the command-line
// arguments after the program name, and the returned int is the exit
// code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mrsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		schedName = fs.String("sched", "probabilistic", "scheduler: probabilistic, coupling, fair")
		wlName    = fs.String("workload", "wordcount", "batch: wordcount (wc), terasort (ts), grep, or all")
		scale     = fs.Int("scale", 6, "workload scale divisor")
		seed      = fs.Int64("seed", 1, "simulation seed")
		nodes     = fs.Int("nodes", 60, "nodes per rack")
		racks     = fs.Int("racks", 1, "number of racks")
		pmin      = fs.Float64("pmin", 0.4, "P_min threshold (probabilistic scheduler)")
		mode      = fs.String("mode", "netcond", "cost mode: hops or netcond")
		cross     = fs.Int("crosstraffic", 0, "background cross-traffic flows")
		faultSpec = fs.String("faults", "", "fault plan: crash:N@T; slow:N@T[+D]*F; link:N@T[+D]*F; replica:N@T; taskfail:P; attempts:N; blacklist:N")
		arrSpec   = fs.String("arrivals", "", "open-system arrival plan: horizon=T,warmup=T,maxactive=N,preempt=0|1 (replaces -workload)")
		tenSpec   = fs.String("tenants", "", "open-system tenants: name:weight=W,rate=R,cap=N,min=GB,max=GB;... (requires -arrivals)")
		hbExpiry  = fs.Float64("hb-expiry", 0, "heartbeat-expiry window in seconds (0 = 10x heartbeat interval)")
		verbose   = fs.Bool("v", false, "print per-job rows")
		traceOut  = fs.String("trace", "", "write a JSON task timeline to this file")
		eventsOut = fs.String("events", "", "write a JSONL event log (scheduler decisions, tasks, flows) to this file")
		obsSum    = fs.Bool("obs-summary", false, "print streaming observer metrics (locality/skip rates, waits, link volume)")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "mrsim:", err)
		return 1
	}

	kind, err := schedulerKind(*schedName)
	if err != nil {
		return fail(err)
	}
	batch, err := mapsched.ParseBatch(*wlName)
	if err != nil {
		return fail(err)
	}
	costMode := mapsched.ModeNetworkCondition
	if *mode == "hops" {
		costMode = mapsched.ModeHops
	} else if *mode != "netcond" {
		return fail(fmt.Errorf("unknown cost mode %q", *mode))
	}

	cfg := mapsched.DefaultClusterConfig()
	cfg.Topology.NodesPerRack = *nodes
	cfg.Topology.Racks = *racks
	cfg.Seed = *seed
	cfg.CostMode = costMode
	cfg.CrossTraffic = *cross
	if *faultSpec != "" {
		if cfg.Faults, err = mapsched.ParseFaultPlan(*faultSpec); err != nil {
			return fail(err)
		}
	}
	if *hbExpiry > 0 {
		cfg.HeartbeatExpiry = *hbExpiry
	}

	opts := []mapsched.Option{
		mapsched.WithScale(*scale),
		mapsched.WithPmin(*pmin),
	}
	if *arrSpec != "" {
		plan, err := mapsched.ParseArrivalPlan(*arrSpec)
		if err != nil {
			return fail(err)
		}
		opts = append(opts, mapsched.WithArrivals(plan))
		batch = nil // arrivals replace the fixed batch
	}
	if *tenSpec != "" {
		tenants, err := mapsched.ParseTenants(*tenSpec)
		if err != nil {
			return fail(err)
		}
		opts = append(opts, mapsched.WithTenants(tenants...))
	}

	sim, err := mapsched.New(cfg, batch, kind, opts...)
	if err != nil {
		return fail(err)
	}

	var eventLog *mapsched.JSONLSink
	var eventFile *os.File
	if *eventsOut != "" {
		eventFile, err = os.Create(*eventsOut)
		if err != nil {
			return fail(err)
		}
		eventLog = mapsched.NewJSONLSink(eventFile)
		if err := sim.Attach(eventLog); err != nil {
			return fail(err)
		}
	}
	var summary *mapsched.SummarySink
	if *obsSum {
		summary = mapsched.NewSummarySink()
		if err := sim.Attach(summary); err != nil {
			return fail(err)
		}
	}

	res, err := sim.Run()
	if err != nil {
		return fail(err)
	}
	tr := sim.Trace()

	if eventLog != nil {
		if err := eventLog.Flush(); err != nil {
			return fail(err)
		}
		if err := eventFile.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "event log written to %s\n", *eventsOut)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fail(err)
		}
		if err := tr.WriteJSON(f); err != nil {
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "trace written to %s (%d tasks)\n", *traceOut, len(tr.Tasks))
	}
	if summary != nil {
		fmt.Fprintln(stdout, summary.String())
	}

	if *verbose {
		t := metrics.NewTable("Job", "Maps", "Reduces", "Completion", "Local maps")
		for _, j := range res.Jobs {
			comp := "unfinished"
			if j.Finished() {
				comp = metrics.Seconds(j.Completion)
			}
			t.AddRow(j.Name, j.NumMaps, j.NumReduces, comp,
				fmt.Sprintf("%.1f%%", j.MapLocality.PercentNode()))
		}
		fmt.Fprintln(stdout, t.String())
	}

	cdf := res.JobCompletionCDF()
	fmt.Fprintf(stdout, "scheduler:          %s\n", res.Scheduler)
	fmt.Fprintf(stdout, "jobs:               %d (%d unfinished)\n", len(res.Jobs), res.Unfinished)
	fmt.Fprintf(stdout, "makespan:           %s\n", metrics.Seconds(res.Makespan))
	fmt.Fprintf(stdout, "job completion:     mean %s, median %s, max %s\n",
		metrics.Seconds(cdf.Mean()), metrics.Seconds(cdf.Quantile(0.5)), metrics.Seconds(cdf.Max()))
	fmt.Fprintf(stdout, "map tasks:          %d, mean %s\n", len(res.MapTimes), metrics.Seconds(metrics.NewCDF(res.MapTimes).Mean()))
	fmt.Fprintf(stdout, "reduce tasks:       %d, mean %s\n", len(res.ReduceTimes), metrics.Seconds(metrics.NewCDF(res.ReduceTimes).Mean()))
	fmt.Fprintf(stdout, "map locality:       %.2f%% node, %.2f%% rack, %.2f%% remote\n",
		res.MapLocality.PercentNode(), res.MapLocality.PercentRack(), res.MapLocality.PercentRemote())
	fmt.Fprintf(stdout, "slot utilization:   map %.2f, reduce %.2f\n", res.MapUtilization, res.ReduceUtilization)
	fmt.Fprintf(stdout, "network volume:     map-in %.1f GB, shuffle %.1f GB remote / %.1f GB local\n",
		res.MapRemoteBytes/1e9, res.ShuffleRemoteBytes/1e9, res.ShuffleLocalBytes/1e9)
	if res.FailedJobs > 0 || res.AttemptFailures > 0 || res.RelaunchedMaps > 0 ||
		res.RelaunchedReduces > 0 || res.BlacklistedNodes > 0 {
		fmt.Fprintf(stdout, "fault recovery:     %d failed jobs, %d attempt failures, %d maps + %d reduces relaunched, %d nodes blacklisted\n",
			res.FailedJobs, res.AttemptFailures, res.RelaunchedMaps, res.RelaunchedReduces, res.BlacklistedNodes)
	}
	if res.OpenSystem {
		fmt.Fprintf(stdout, "open system:        %d preemptions, %d rejected, Jain fairness %.3f\n",
			res.Preemptions, res.RejectedJobs, res.JainFairness)
		fmt.Fprintf(stdout, "steady-state util:  map %.2f, reduce %.2f\n",
			res.SteadyMapUtilization, res.SteadyReduceUtilization)
		t := metrics.NewTable("Tenant", "Weight", "Arrived", "Admit/Rej/Pre", "Done", "JCT p50/p95/p99", "QDelay p95", "Jobs/s")
		for _, tr := range res.Tenants {
			jct, qd, thr := "-", "-", "-"
			if tr.SteadyCompleted > 0 {
				jct = fmt.Sprintf("%.0f/%.0f/%.0fs", tr.JCTP50, tr.JCTP95, tr.JCTP99)
				qd = fmt.Sprintf("%.1fs", tr.QueueDelayP95)
				thr = fmt.Sprintf("%.4f", tr.Throughput)
			}
			t.AddRow(tr.Name, tr.Weight, tr.Arrived,
				fmt.Sprintf("%d/%d/%d", tr.Admitted, tr.Rejected, tr.Preempted),
				tr.Completed, jct, qd, thr)
		}
		fmt.Fprintln(stdout, t.String())
	}
	if res.FailedJobs > 0 {
		fmt.Fprintf(stderr, "mrsim: %d jobs failed permanently (exit %d)\n", res.FailedJobs, exitFailedJobs)
		return exitFailedJobs
	}
	return 0
}

func schedulerKind(name string) (mapsched.SchedulerKind, error) {
	switch strings.ToLower(name) {
	case "probabilistic", "pna", "prob":
		return mapsched.SchedulerProbabilistic, nil
	case "coupling":
		return mapsched.SchedulerCoupling, nil
	case "fair":
		return mapsched.SchedulerFair, nil
	default:
		return 0, fmt.Errorf("unknown scheduler %q", name)
	}
}
