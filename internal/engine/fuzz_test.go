package engine

import (
	"math"
	"testing"

	"mapsched/internal/faults"
	"mapsched/internal/job"
	"mapsched/internal/sched"
	"mapsched/internal/workload"
)

// fuzzBytes hands out fuzz input one byte at a time, zeros once drained.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzRun maps fuzz bytes to a small cluster, a two-job batch and a
// fault plan (one crash, slowdown, link degradation and replica loss,
// each optional, plus transient task failures). Flag bits 1 and 2 are
// unused.
func fuzzRun(t *testing.T, data []byte) (Config, []job.Spec) {
	b := fuzzBytes(data)
	cfg := DefaultConfig()
	cfg.Topology.Racks = 1 + b.next()%2
	cfg.Topology.NodesPerRack = 2 + b.next()%3
	nodes := cfg.Topology.Racks * cfg.Topology.NodesPerRack
	cfg.MapSlotsPerNode = 1 + b.next()%3
	cfg.ReduceSlotsPerNode = 1 + b.next()%2
	cfg.Seed = int64(b.next())
	cfg.CrossTraffic = b.next() % 4
	flags := b.next()
	at := func() float64 { return float64(b.next() % 60) }
	node := func() int { return b.next() % nodes }
	if flags&4 != 0 {
		cfg.Faults.Crashes = []faults.NodeCrash{{Node: node(), At: at()}}
	}
	if flags&8 != 0 {
		cfg.Faults.Slowdowns = []faults.NodeSlowdown{{
			Node: node(), At: at(), Duration: at(), Factor: 1.5 + float64(b.next()%6),
		}}
	}
	if flags&16 != 0 {
		cfg.Faults.Links = []faults.LinkDegrade{{
			Node: node(), At: at(), Duration: 1 + at(), Factor: float64(b.next()%11) / 10,
		}}
	}
	if flags&32 != 0 {
		cfg.Faults.ReplicaLosses = []faults.ReplicaLoss{{Node: node(), At: at()}}
	}
	if flags&64 != 0 {
		cfg.Faults.TaskFailProb = float64(1+b.next()%20) / 100
	}
	kinds := workload.Kinds()
	defs := []workload.JobDef{
		{JobID: "01", Kind: kinds[b.next()%len(kinds)], InputGB: 1, Maps: 2 + b.next()%14, Reduces: 1 + b.next()%6},
		{JobID: "02", Kind: kinds[b.next()%len(kinds)], InputGB: 2, Maps: 2 + b.next()%14, Reduces: 1 + b.next()%6},
	}
	specs, err := workload.Specs(defs, workload.Options{Scale: 1, Replication: 3, SubmitStagger: float64(b.next() % 10)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		specs[i].Profile.ComputeJitter = float64(b.next()%10) / 20
	}
	return cfg, specs
}

// FuzzSimulation runs whole simulations over fuzzed topologies and fault
// plans, and checks that every
// run drains: all jobs end, reduces of successful jobs received exactly
// their input, slots and shuffle flows are empty, every job's engine
// record is released, the pending tally matches a rescan of the active
// jobs, the cross traffic left on the network is a feasible allocation, and the
// placement service every slot, node-health, link and replica change
// went through audits clean.
func FuzzSimulation(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 2, 1, 7, 3, 0x7c, 3, 12, 5, 20, 2, 30, 4, 25, 10, 5, 8, 5, 0, 9, 3, 1, 12, 4, 2, 5, 7})
	f.Add([]byte{0, 1, 1, 0, 3, 0, 0x44, 1, 40, 5, 0, 10, 7, 1, 2, 9, 1, 4})
	f.Add([]byte{1, 0, 2, 1, 11, 2, 0x38, 30, 10, 3, 7, 6, 8, 5, 1, 10, 0, 13, 5, 2, 9, 0, 4, 9})
	// A running map's last input replica is lost, then its attempt fails:
	// the reverted map can never run again, so its job must fail.
	f.Add([]byte("0000C0\x7c1A100000000+1291"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, specs := fuzzRun(t, data)
		s, err := New(cfg, specs, sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Unfinished != 0 {
			t.Fatalf("%d jobs unfinished: %s", res.Unfinished, res)
		}
		for _, j := range s.Jobs() {
			if j.Failed {
				continue
			}
			for _, r := range j.Reduces {
				if want := r.ExpectedInput(); math.Abs(r.ShuffledBytes-want) > 1e-9*want+1 {
					t.Fatalf("reduce %s/%d shuffled %v, want %v", j.Spec.Name, r.Index, r.ShuffledBytes, want)
				}
			}
		}
		if um, ur := s.state.UsedSlots(); um != 0 || ur != 0 {
			t.Fatalf("slots still held after the run: %d map, %d reduce", um, ur)
		}
		if ids := leakedRecords(s); len(ids) > 0 {
			t.Fatalf("%d records of ended jobs not released, first job %d", len(ids), ids[0])
		}
		if d := tallyDrift(s); d != "" {
			t.Fatal(d)
		}
		if live := s.topo.Net().ActiveFlows(); live != cfg.CrossTraffic {
			t.Fatalf("%d flows live after the run, want the %d cross-traffic flows", live, cfg.CrossTraffic)
		}
		if err := s.topo.Net().CheckFeasible(); err != nil {
			t.Fatal(err)
		}
		if a := s.place.Audit(); !a.Clean() {
			t.Fatal(a)
		}
	})
}
