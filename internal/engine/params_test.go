package engine

import (
	"math"
	"testing"

	"mapsched/internal/job"
	"mapsched/internal/obs"
	"mapsched/internal/sched"
	"mapsched/internal/workload"
)

// The Hadoop 1.x parameters the engine holds fixed are checked through
// the behaviour they shape, against the values pinned here, so that a
// changed constant fails a test.
const (
	pinnedSlowstart    = 0.05
	pinnedParallelism  = 3
	pinnedTaskOverhead = 1.0
)

// paramProbe watches one run. At every event it counts each reduce
// attempt's fetch flights; at every reduce launch it reads the job's map
// progress; at every task completion it reads the task's duration.
type paramProbe struct {
	sim *Simulation

	maxFlights    int                // most fetch flights one reduce attempt held
	minLaunchProg float64            // least map progress at a reduce launch
	minDur        map[string]float64 // shortest finished task, by kind
}

func (p *paramProbe) Observe(e obs.Event) {
	p.sim.eachRun(job.ReduceKind, func(att *attempt) {
		p.maxFlights = max(p.maxFlights, len(att.flights))
	})
	switch {
	case e.Type == obs.TaskStart && e.Task.Kind == job.ReduceKind.String():
		p.minLaunchProg = math.Min(p.minLaunchProg, p.job(e.Job).MapProgress())
	case e.Type == obs.TaskFinish:
		if d, ok := p.minDur[e.Task.Kind]; !ok || e.Dur < d {
			p.minDur[e.Task.Kind] = e.Dur
		}
	}
}

func (p *paramProbe) job(name string) *job.Job {
	for _, j := range p.sim.Jobs() {
		if j.Spec.Name == name {
			return j
		}
	}
	panic("unknown job " + name)
}

// runParamProbe runs tinySpecs' jobs at four times the tasks, so map
// progress moves in small steps between heartbeats, plus one job of
// 1 KiB blocks, whose maps compute and stream in microseconds, so their
// duration is the fixed per-task overhead almost exactly.
func runParamProbe(t *testing.T) *paramProbe {
	t.Helper()
	specs, err := workload.Specs([]workload.JobDef{
		{JobID: "01", Kind: workload.Wordcount, InputGB: 10, Maps: 88, Reduces: 157},
		{JobID: "11", Kind: workload.Terasort, InputGB: 10, Maps: 143, Reduces: 190},
		{JobID: "21", Kind: workload.Grep, InputGB: 10, Maps: 87, Reduces: 148},
	}, workload.Options{Scale: 10, Replication: 2, SubmitStagger: 1})
	if err != nil {
		t.Fatal(err)
	}
	small := specs[0]
	small.Name = "kib-blocks"
	small.InputBytes, small.BlockSize, small.NumReduces = 8<<10, 1<<10, 2
	specs = append(specs, small)
	s, err := New(tinyConfig(), specs, sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
	if err != nil {
		t.Fatal(err)
	}
	p := &paramProbe{sim: s, minLaunchProg: math.Inf(1), minDur: map[string]float64{}}
	if err := s.Attach(p); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Fatalf("unfinished jobs: %s", res)
	}
	return p
}

// TestShuffleParallelismBoundsFlights: no reduce attempt ever holds more
// than the parallel-copier bound of fetch flights, and some attempt
// reaches it.
func TestShuffleParallelismBoundsFlights(t *testing.T) {
	if p := runParamProbe(t); p.maxFlights != pinnedParallelism {
		t.Fatalf("most fetch flights one reduce attempt held = %d, want %d", p.maxFlights, pinnedParallelism)
	}
}

// TestSlowstartGatesReduceLaunches: no reduce launches before its job's
// map progress reaches slowstart, and the gate is tight: some reduce
// launches before its job's progress is half as far again.
func TestSlowstartGatesReduceLaunches(t *testing.T) {
	lo, hi := pinnedSlowstart, 1.5*pinnedSlowstart
	if p := runParamProbe(t); !(p.minLaunchProg >= lo && p.minLaunchProg < hi) {
		t.Fatalf("least map progress at a reduce launch = %v, want within [%v, %v)", p.minLaunchProg, lo, hi)
	}
}

// TestTaskOverheadFloorsDurations: every finished task ran for at least
// the fixed per-task overhead, and a map with almost no input ran for
// little more than it.
func TestTaskOverheadFloorsDurations(t *testing.T) {
	p := runParamProbe(t)
	for _, k := range []job.TaskKind{job.MapKind, job.ReduceKind} {
		if d, ok := p.minDur[k.String()]; !ok || d < pinnedTaskOverhead {
			t.Fatalf("shortest %s ran %v s (finished: %t), want >= %v s", k, d, ok, pinnedTaskOverhead)
		}
	}
	if d := p.minDur[job.MapKind.String()]; d >= 1.01*pinnedTaskOverhead {
		t.Fatalf("shortest map ran %v s, want within 1%% of the %v s overhead", d, pinnedTaskOverhead)
	}
}
