package engine

import (
	"fmt"

	"mapsched/internal/job"
	"mapsched/internal/metrics"
	"mapsched/internal/trace"
)

// JobResult summarizes one job's execution.
type JobResult struct {
	Name       string
	InputBytes float64
	NumMaps    int
	NumReduces int
	Submit     float64
	Finish     float64 // 0 when unfinished at the horizon
	Completion float64 // Finish − Submit; 0 when unfinished
	Failed     bool    // terminated unsuccessfully by fault recovery

	MapLocality    metrics.LocalityCount
	ReduceLocality metrics.LocalityCount
	ShuffleBytes   float64 // total intermediate bytes the job moved
}

// Finished reports whether the job completed before the horizon.
func (r JobResult) Finished() bool { return r.Finish > 0 }

// Result aggregates everything a run produced.
type Result struct {
	Scheduler string
	Jobs      []JobResult

	MapTimes    []float64 // per-task running times (Fig. 6a)
	ReduceTimes []float64 // per-task running times (Fig. 6b)

	MapLocality    metrics.LocalityCount // aggregate (Table III)
	ReduceLocality metrics.LocalityCount

	MapUtilization    float64 // time-averaged busy map-slot fraction
	ReduceUtilization float64

	Makespan   float64 // finish of the last job
	Unfinished int     // jobs still running at the horizon
	Events     uint64  // simulator events executed

	// Network accounting: the transmission volumes the cost model tries to
	// minimize (counted at transfer initiation; transfers cancelled by a
	// node failure remain counted).
	MapRemoteBytes     float64 // map input fetched across the network
	ShuffleRemoteBytes float64 // intermediate data moved across the network
	ShuffleLocalBytes  float64 // intermediate data served locally

	// Fault-tolerance and speculation accounting.
	Speculated        int // backup map attempts launched
	SpecWins          int // backups that finished before the original
	SpeculatedReduces int // backup reduce attempts launched
	SpecReduceWins    int // reduce backups that finished first
	RelaunchedMaps    int // completed maps re-executed after node failures
	RelaunchedReduces int // running reduces restarted after node failures
	AttemptFailures   int // transient attempt failures injected
	BlacklistedNodes  int // cumulative blacklist entries over the run
	FailedJobs        int // jobs terminated unsuccessfully (not in Unfinished)

	// Open-system accounting (engine.Config.Open; zero otherwise).
	OpenSystem   bool
	Tenants      []TenantResult // declaration order
	JainFairness float64        // Jain index over weight-normalized steady completions
	Preemptions  int            // kill-and-requeue evictions
	RejectedJobs int            // arrivals turned away by full queues

	// Slot utilization averaged over the post-warm-up window only.
	SteadyMapUtilization    float64
	SteadyReduceUtilization float64
}

// CompletionTimes returns the completion time of every finished job
// (the Fig. 4 sample).
func (r *Result) CompletionTimes() []float64 {
	var out []float64
	for _, j := range r.Jobs {
		if j.Finished() {
			out = append(out, j.Completion)
		}
	}
	return out
}

// JobCompletionCDF returns the CDF of finished-job completion times.
func (r *Result) JobCompletionCDF() metrics.CDF {
	return metrics.NewCDF(r.CompletionTimes())
}

// String summarizes the run for logs.
func (r *Result) String() string {
	return fmt.Sprintf("%s: %d jobs (%d unfinished), makespan %.1fs, map util %.2f, reduce util %.2f",
		r.Scheduler, len(r.Jobs), r.Unfinished, r.Makespan, r.MapUtilization, r.ReduceUtilization)
}

// Trace exports the run's task timeline (call after Run).
func (s *Simulation) Trace() *trace.Trace {
	return trace.FromJobs(s.sch.Name(), s.jobs)
}

// collect assembles the Result after the event loop stops.
func (s *Simulation) collect() *Result {
	res := &Result{
		Scheduler: s.sch.Name(),
		Events:    s.eng.Fired(),
	}
	now := float64(s.eng.Now())
	for _, j := range s.jobs {
		jr := JobResult{
			Name:       j.Spec.Name,
			InputBytes: j.Spec.InputBytes,
			NumMaps:    j.NumMaps(),
			NumReduces: j.NumReduces(),
			Submit:     float64(j.Submitted),
		}
		if j.Done() {
			jr.Finish = float64(j.Finished)
			jr.Completion = j.CompletionTime()
			if jr.Finish > res.Makespan {
				res.Makespan = jr.Finish
			}
		} else if j.Failed {
			// Failed jobs keep Finish 0 (Finished() is false) but are not
			// "unfinished": they terminated, just not successfully.
			jr.Failed = true
			res.FailedJobs++
		} else {
			res.Unfinished++
		}
		for _, m := range j.Maps {
			if m.State == job.TaskPending {
				continue
			}
			switch m.Locality {
			case job.LocalNode:
				jr.MapLocality.Node++
			case job.LocalRack:
				jr.MapLocality.Rack++
			case job.Remote:
				jr.MapLocality.Remote++
			}
			jr.ShuffleBytes += m.TotalOut()
		}
		for _, r := range j.Reduces {
			if r.State == job.TaskPending {
				continue
			}
			switch r.Locality {
			case job.LocalNode:
				jr.ReduceLocality.Node++
			case job.LocalRack:
				jr.ReduceLocality.Rack++
			case job.Remote:
				jr.ReduceLocality.Remote++
			}
		}
		res.MapLocality.Merge(jr.MapLocality)
		res.ReduceLocality.Merge(jr.ReduceLocality)
		res.Jobs = append(res.Jobs, jr)
	}
	res.MapTimes = s.times[job.MapKind]
	res.ReduceTimes = s.times[job.ReduceKind]
	res.MapRemoteBytes = s.mapRemoteBytes
	res.ShuffleRemoteBytes = s.shuffleRemoteBytes
	res.ShuffleLocalBytes = s.shuffleLocalBytes
	res.Speculated = s.speculated[job.MapKind]
	res.SpecWins = s.specWins[job.MapKind]
	res.SpeculatedReduces = s.speculated[job.ReduceKind]
	res.SpecReduceWins = s.specWins[job.ReduceKind]
	res.RelaunchedMaps = s.relaunchedMaps
	res.RelaunchedReduces = s.relaunchedReduces
	res.AttemptFailures = s.attemptFailures
	// Cumulative, not a point-in-time census: entries are released when
	// their last holding job tears down, so len(s.blacklist) at the end
	// of a healthy run is typically zero.
	res.BlacklistedNodes = s.everBlacklisted
	// Utilization is averaged over the busy window [0, makespan]; when the
	// run hit the horizon with work outstanding, average to the horizon.
	end := res.Makespan
	if res.Unfinished > 0 || end == 0 {
		end = now
	}
	res.MapUtilization = s.utilMap.Average(end)
	res.ReduceUtilization = s.utilReduce.Average(end)
	res.Unfinished += len(s.specs) - s.specsSubmitted // never-submitted jobs
	if s.openOn {
		// The same busy-window end bounds the steady-state averages: after
		// the queue drains the sim clock coasts to MaxSimTime, which would
		// dilute any rate or time-average computed against it.
		s.collectOpen(res, end)
	}
	return res
}
