package mapsched

import (
	"bytes"
	"strings"
	"testing"
)

// TestFaultyEventLogDeterministic replays a run under a combined fault
// plan (crash, slowdown, link degradation, replica loss, transient task
// failures) and requires the JSONL event log to be byte-identical across
// runs — the fault subsystem draws only from the seeded RNG.
func TestFaultyEventLogDeterministic(t *testing.T) {
	plan, err := ParseFaultPlan("crash:3@12;slow:5@5+40*3;link:7@4+30*0.2;replica:9@8;taskfail:0.05")
	if err != nil {
		t.Fatal(err)
	}
	record := func() string {
		var buf bytes.Buffer
		log := NewJSONLSink(&buf)
		cfg := seededConfig(7)
		cfg.Faults = plan
		sim, err := New(cfg, Batch(Terasort), SchedulerProbabilistic,
			WithScale(30), WithReplication(3), WithObserver(log))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if err := log.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := record(), record()
	if a != b {
		t.Fatal("same seed and fault plan produced different event logs")
	}
	if a == "" {
		t.Fatal("empty event log")
	}
	// Every injected fault class must leave its typed trace in the log.
	for _, evt := range []string{
		`"node_fail"`, `"failure_detected"`, `"node_slow"`,
		`"link_degrade"`, `"replica_loss"`, `"attempt_fail"`,
	} {
		if !strings.Contains(a, evt) {
			t.Errorf("event log missing %s events", evt)
		}
	}
}

// TestJobsTerminateUnderEveryFaultType is the liveness invariant of the
// recovery machinery: under each fault type — alone and combined — every
// job must terminate, either completed or explicitly failed. A hung
// shuffle, an un-reverted task, or a lost slot shows up here as an
// unfinished job.
func TestJobsTerminateUnderEveryFaultType(t *testing.T) {
	cases := []struct {
		name        string
		spec        string
		replication int
	}{
		{"crash", "crash:3@10", 3},
		{"double_crash", "crash:3@10;crash:8@25", 3},
		{"slowdown", "slow:5@5+40*4", 2},
		{"permanent_slowdown", "slow:5@5*3", 2},
		{"link_degrade", "link:7@5+30*0.1", 2},
		{"link_severed", "link:7@5+30*0", 2},
		{"replica_loss", "replica:9@5", 3},
		{"replica_loss_fatal", "replica:9@5;replica:4@6", 1},
		{"taskfail", "taskfail:0.1", 2},
		{"taskfail_exhausting", "taskfail:0.6;attempts:2", 2},
		{"combined", "crash:3@10;slow:5@5+40*4;link:7@5+30*0.2;replica:9@8;taskfail:0.05", 3},
		// The fault-churn plan (two crashes, a slowdown, a degraded link
		// and transient attempt failures), with the 60-node testbed's
		// nodes 20, 40, 10 and 30 remapped onto the 12-node cluster.
		{"fault_churn", "crash:4@20;crash:8@60;slow:2@10+120*3;link:6@15+90*0.2;taskfail:0.05", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := ParseFaultPlan(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := seededConfig(3)
			cfg.Faults = plan
			res, err := runSim(cfg, Batch(Wordcount), SchedulerProbabilistic,
				WithScale(30), WithReplication(tc.replication))
			if err != nil {
				t.Fatal(err)
			}
			if res.Unfinished != 0 {
				t.Fatalf("%d jobs neither completed nor failed", res.Unfinished)
			}
			for _, j := range res.Jobs {
				if !j.Finished() && !j.Failed {
					t.Fatalf("job %s terminated in limbo: %+v", j.Name, j)
				}
				if j.Finished() && j.Failed {
					t.Fatalf("job %s both finished and failed: %+v", j.Name, j)
				}
			}
			if strings.HasPrefix(tc.name, "replica_loss_fatal") && res.FailedJobs == 0 {
				t.Fatal("losing the only replicas should fail at least one job")
			}
			if strings.HasPrefix(tc.name, "taskfail_exhausting") && res.FailedJobs == 0 {
				t.Fatal("exhausting the attempt cap should fail at least one job")
			}
		})
	}
}

// TestEmptyFaultPlanIsIdentity: installing a plan that scripts nothing,
// with empty rather than nil fault lists, must not perturb the
// simulation relative to the config's zero plan.
func TestEmptyFaultPlanIsIdentity(t *testing.T) {
	record := func(plan FaultPlan) string {
		var buf bytes.Buffer
		log := NewJSONLSink(&buf)
		cfg := seededConfig(5)
		cfg.Faults = plan
		sim, err := New(cfg, Batch(Grep), SchedulerProbabilistic, WithScale(30), WithObserver(log))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if err := log.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	empty := FaultPlan{Crashes: []NodeCrash{}, Slowdowns: []NodeSlowdown{},
		Links: []LinkDegradeFault{}, ReplicaLosses: []ReplicaLossFault{}}
	if record(FaultPlan{}) != record(empty) {
		t.Fatal("empty fault plan changed the event log")
	}
}
