package sched

import (
	"fmt"
	"testing"

	"mapsched/internal/job"
	"mapsched/internal/obs"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
)

// TestEmptyOfferIsANoOp pins the precondition the engine's heartbeat
// relies on when it offers no slot of a kind no active job has pending:
// offered such a slot, every scheduler returns nil without drawing from
// its RNG, emitting an event or writing its per-job or per-task state.
func TestEmptyOfferIsANoOp(t *testing.T) {
	for _, sc := range []struct {
		name string
		b    Builder
		// prime gives the scheduler's state an entry for j; state
		// renders that state so a write shows as a changed string.
		prime func(Scheduler, *job.Job)
		state func(Scheduler) string
	}{
		{"probabilistic", NewProbabilistic(DefaultProbabilisticConfig()),
			func(Scheduler, *job.Job) {}, func(Scheduler) string { return "" }},
		{"fair", NewFairDelay(),
			func(s Scheduler, j *job.Job) { s.(*FairDelay).skips[j.ID] = 1 },
			func(s Scheduler) string { return fmt.Sprint(s.(*FairDelay).skips) }},
		{"coupling", NewCoupling(),
			func(s Scheduler, j *job.Job) { s.(*Coupling).waits[j.Reduces[0]] = 1 },
			func(s Scheduler) string { return fmt.Sprint(s.(*Coupling).waits) }},
		{"larts", NewLARTS(),
			func(s Scheduler, j *job.Job) {
				l := s.(*LARTS)
				l.waits[j.Reduces[0]] = 1
				l.maps.skips[j.ID] = 1
			},
			func(s Scheduler) string { return fmt.Sprint(s.(*LARTS).waits, s.(*LARTS).maps.skips) }},
		{"capacity", NewCapacity(),
			func(s Scheduler, j *job.Job) { s.(*Capacity).waits[j.Reduces[0]] = 1 },
			func(s Scheduler) string { return fmt.Sprint(s.(*Capacity).waits) }},
	} {
		for _, k := range []job.TaskKind{job.MapKind, job.ReduceKind} {
			for _, c := range []struct {
				name string
				jobs func(*fixture) []*job.Job
			}{
				{"no jobs", func(*fixture) []*job.Job { return nil }},
				{"drained kind", func(f *fixture) []*job.Job { return drainedJobs(t, f, k) }},
			} {
				t.Run(fmt.Sprintf("%s/%s/%s", sc.name, k, c.name), func(t *testing.T) {
					f := newFixture(t)
					const seed = 11
					f.env.RNG = sim.NewRNG(seed)
					var events []obs.Type
					f.env.Obs = obs.NewStream()
					f.env.Obs.Attach(obs.Func(func(e obs.Event) { events = append(events, e.Type) }))
					s := sc.b(f.env)
					jobs := c.jobs(f)
					if len(jobs) > 0 {
						sc.prime(s, jobs[0])
					}
					before := sc.state(s)
					ctx := f.ctxFor(jobs...)
					for n := 0; n < f.net.Size(); n++ {
						node := topology.NodeID(n)
						if k == job.MapKind {
							if m := s.AssignMap(ctx, node); m != nil {
								t.Fatalf("AssignMap(%d) = %s/%d with no pending map", n, m.Job.Spec.Name, m.Index)
							}
						} else if r := s.AssignReduce(ctx, node); r != nil {
							t.Fatalf("AssignReduce(%d) = %s/%d with no pending reduce", n, r.Job.Spec.Name, r.Index)
						}
					}
					if got, want := f.env.RNG.Int63(), sim.NewRNG(seed).Int63(); got != want {
						t.Fatalf("next draw %d, twin RNG's %d: an empty offer drew", got, want)
					}
					if len(events) > 0 {
						t.Fatalf("empty offers emitted %v", events)
					}
					if after := sc.state(s); after != before {
						t.Fatalf("empty offers changed the state from %s to %s", before, after)
					}
				})
			}
		}
	}
}

// drainedJobs lays out two jobs with no pending task of kind k that
// would otherwise be schedulable: every map finished or running (so
// reduces pass the slowstart gate), or every reduce running or done.
func drainedJobs(t *testing.T, f *fixture, k job.TaskKind) []*job.Job {
	t.Helper()
	j1 := f.addJob(t, 1, []topology.NodeID{0, 3, 5}, 3)
	j2 := f.addJob(t, 2, []topology.NodeID{1, 6}, 2)
	if k == job.MapKind {
		finish(j1.Maps[0], 0)
		j1.Maps[1].Run(3, 0)
		j1.Maps[2].Run(5, 0)
		finish(j2.Maps[0], 1)
		finish(j2.Maps[1], 6)
		return []*job.Job{j1, j2}
	}
	finish(j1.Maps[0], 0)
	for i, r := range j1.Reduces {
		r.Run(topology.NodeID(i), 0)
	}
	j1.Reduces[0].Complete(0)
	for i, r := range j2.Reduces {
		r.Run(topology.NodeID(4+i), 0)
	}
	return []*job.Job{j1, j2}
}
