package engine

import (
	"fmt"
	"testing"

	"mapsched/internal/faults"
	"mapsched/internal/job"
	"mapsched/internal/obs"
	"mapsched/internal/sched"
)

// tallyDrift compares s's pending tally with a rescan of its active jobs
// and describes the difference, "" when there is none. The rescan joins
// a stand-in job per active job, holding as many pending tasks of each
// kind as the job has, to a fresh tally.
func tallyDrift(s *Simulation) string {
	var want job.Tally
	for _, j := range s.active {
		var maps []*job.MapTask
		for _, m := range j.Maps {
			if m.State == job.TaskPending {
				maps = append(maps, &job.MapTask{})
			}
		}
		var reds []*job.ReduceTask
		for _, r := range j.Reduces {
			if r.State == job.TaskPending {
				reds = append(reds, &job.ReduceTask{})
			}
		}
		job.Assemble(j.ID, j.Spec, maps, reds).Join(&want)
	}
	if s.pending != want {
		return fmt.Sprintf("t=%v: pending tally %+v, rescan of %d active jobs %+v",
			s.eng.Now(), s.pending, len(s.active), want)
	}
	return ""
}

// TestPendingTallyMatchesRescan checks the engine's pending tally
// against a rescan of the active jobs after every event, every
// heartbeat included: under a fault plan that crashes a node, fails
// attempts and fails jobs, and under an open-system run that preempts
// jobs and re-admits them.
func TestPendingTallyMatchesRescan(t *testing.T) {
	faulty := tinyConfig()
	faulty.Faults = faults.Plan{
		Crashes:         []faults.NodeCrash{{Node: 2, At: 6}},
		TaskFailProb:    0.3,
		MaxTaskAttempts: 2,
	}
	open := tinyConfig()
	arrivals := longStream(t, 60, 2)
	for i := range arrivals {
		arrivals[i].Tenant = "be"
		if i%3 == 2 {
			arrivals[i].Tenant = "gold"
		}
	}
	open.Open = OpenSystem{
		Arrivals:  arrivals,
		Tenants:   []TenantPolicy{{Name: "gold", Weight: 3}, {Name: "be", Weight: 1}},
		MaxActive: 4,
		Preempt:   true,
	}
	open.Faults = faults.Plan{TaskFailProb: 0.1, MaxTaskAttempts: 8}
	for _, c := range []struct {
		name  string
		cfg   Config
		specs []job.Spec
		want  []obs.Type // events the plan must produce
	}{
		{"faults", faulty, tinySpecs(t), []obs.Type{obs.FailureDetected, obs.AttemptFail, obs.JobFail}},
		{"opensys", open, nil, []obs.Type{obs.JobPreempt, readmitted}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := New(c.cfg, c.specs, sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
			if err != nil {
				t.Fatal(err)
			}
			seen := map[obs.Type]int{}
			err = s.Attach(obs.Func(func(e obs.Event) {
				seen[e.Type]++
				if e.Type == obs.JobAdmit && e.Reason == "requeued" {
					seen[readmitted]++
				}
			}))
			if err != nil {
				t.Fatal(err)
			}
			checks := 0
			s.eng.AddCommitHook(func() {
				checks++
				if d := tallyDrift(s); d != "" {
					t.Fatal(d)
				}
			})
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			for _, typ := range c.want {
				if seen[typ] == 0 {
					t.Fatalf("no %s event: %s", typ, res)
				}
			}
			if res.Unfinished != 0 {
				t.Fatalf("unfinished: %s", res)
			}
			if checks < int(res.Events) {
				t.Fatalf("%d checks over %d events", checks, res.Events)
			}
		})
	}
}

// readmitted stands for a job_admit event of a preempted job.
const readmitted obs.Type = "job_admit/requeued"
