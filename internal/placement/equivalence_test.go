package placement_test

import (
	"fmt"
	"reflect"
	"testing"

	"mapsched/internal/core"
	"mapsched/internal/engine"
	"mapsched/internal/experiments"
	"mapsched/internal/job"
	"mapsched/internal/placement"
	"mapsched/internal/sched"
	"mapsched/internal/topology"
	"mapsched/internal/workload"
)

// referenceScheduler is the probabilistic scheduler's engine adapter
// driving a placement.ReferenceDecider instead of the production Decider.
type referenceScheduler struct {
	dec placement.ReferenceDecider
}

func (s *referenceScheduler) Name() string { return "reference" }

func (s *referenceScheduler) AssignMap(ctx *sched.Context, node topology.NodeID) *job.MapTask {
	m, _ := s.dec.PlaceMap(ctx, node)
	return m
}

func (s *referenceScheduler) AssignReduce(ctx *sched.Context, node topology.NodeID) *job.ReduceTask {
	r, _ := s.dec.PlaceReduce(ctx, node)
	return r
}

// equivalenceCase is one distance mode on one cluster shape; racks == 0
// keeps DefaultSetup's 60-node single rack.
type equivalenceCase struct {
	mode           core.Mode
	racks, perRack int
}

func (c equivalenceCase) String() string {
	if c.racks == 0 {
		return c.mode.String()
	}
	return fmt.Sprintf("%s-%dx%d", c.mode, c.racks, c.perRack)
}

// runProbabilistic executes one batch under the probabilistic scheduler,
// on the production Decider or the reference one, and returns the full
// result plus the final per-task state.
func runProbabilistic(t *testing.T, c equivalenceCase, wk workload.Kind, reference bool) (*engine.Result, []*job.Job) {
	t.Helper()
	mode := c.mode
	s := experiments.DefaultSetup()
	s.Workload.Scale = 12
	s.Engine.Seed = 7
	s.Engine.CostMode = mode
	if c.racks > 0 {
		s.Engine.Topology.Racks = c.racks
		s.Engine.Topology.NodesPerRack = c.perRack
	}
	if mode == core.ModeHops {
		s.Engine.CrossTraffic = 0
	}
	specs, err := workload.Specs(workload.Batch(wk), s.Workload)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sched.DefaultProbabilisticConfig()
	cfg.Pmin = s.Pmin
	b := sched.NewProbabilistic(cfg)
	if reference {
		b = func(env sched.Env) sched.Scheduler {
			return &referenceScheduler{dec: placement.NewReferenceDecider(env.Place, cfg, env.RNG, env.Obs)}
		}
	}
	sim, err := engine.New(s.Engine, specs, b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, sim.Jobs()
}

// TestOptimizedSchedulerMatchesNaive is the end-to-end equivalence proof
// for the incremental cost caches: under a fixed seed, the production
// scheduler and the uncached reference must make byte-identical
// scheduling decisions — same per-task placements, launch and finish
// instants, locality classes, event counts and aggregate metrics — for
// every workload batch, in both distance modes, and in network-condition
// mode also on 4 racks × 15 nodes, where paths cross the ToR/core links.
func TestOptimizedSchedulerMatchesNaive(t *testing.T) {
	for _, c := range []equivalenceCase{
		{mode: core.ModeHops},
		{mode: core.ModeNetworkCondition},
		{mode: core.ModeNetworkCondition, racks: 4, perRack: 15},
	} {
		for _, wk := range workload.Kinds() {
			c, wk := c, wk
			t.Run(c.String()+"/"+wk.String(), func(t *testing.T) {
				t.Parallel()
				optRes, optJobs := runProbabilistic(t, c, wk, false)
				refRes, refJobs := runProbabilistic(t, c, wk, true)
				refRes.Scheduler = optRes.Scheduler
				if !reflect.DeepEqual(optRes, refRes) {
					t.Fatalf("results diverge:\noptimized: %+v\nreference: %+v", optRes, refRes)
				}
				if len(optJobs) != len(refJobs) {
					t.Fatalf("job counts differ: %d vs %d", len(optJobs), len(refJobs))
				}
				for ji := range optJobs {
					a, b := optJobs[ji], refJobs[ji]
					for mi := range a.Maps {
						ma, mb := a.Maps[mi], b.Maps[mi]
						if ma.Node != mb.Node || ma.State != mb.State || ma.Launch != mb.Launch ||
							ma.Finish != mb.Finish || ma.Locality != mb.Locality {
							t.Fatalf("job %d map %d diverges: %+v vs %+v", ji, mi, ma, mb)
						}
					}
					for ri := range a.Reduces {
						ra, rb := a.Reduces[ri], b.Reduces[ri]
						if ra.Node != rb.Node || ra.State != rb.State || ra.Launch != rb.Launch ||
							ra.Finish != rb.Finish || ra.ShuffledBytes != rb.ShuffledBytes {
							t.Fatalf("job %d reduce %d diverges: %+v vs %+v", ji, ri, ra, rb)
						}
					}
				}
			})
		}
	}
}
