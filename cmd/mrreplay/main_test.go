package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mapsched"
)

// recordEvents runs a small hop-cost probabilistic simulation of batch
// under the fault plan and writes its JSONL event log to a temp file,
// returning the path.
func recordEvents(t *testing.T, batch []mapsched.JobDef, faults mapsched.FaultPlan, opts ...mapsched.Option) string {
	t.Helper()
	cfg := mapsched.DefaultClusterConfig()
	cfg.Topology.Racks = 2
	cfg.Topology.NodesPerRack = 4
	cfg.Seed = 5
	cfg.CostMode = mapsched.ModeHops
	cfg.Faults = faults
	path := filepath.Join(t.TempDir(), "run.events.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := mapsched.NewJSONLSink(f)
	sim, err := mapsched.New(cfg, batch, mapsched.SchedulerProbabilistic, append(opts, mapsched.WithScale(40))...)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Attach(sink); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunVerdictExitCodes pins the CLI contract: 0 for a faithful
// stream, exitDiverged when decisions disagree, and exitNotReplayable
// with a one-line machine-readable stderr reason for streams outside
// the replayable envelope.
func TestRunVerdictExitCodes(t *testing.T) {
	flags := []string{"-workload", "grep", "-nodes", "4", "-racks", "2", "-scale", "40", "-seed", "5"}
	clean := recordEvents(t, mapsched.Batch(mapsched.Grep), mapsched.FaultPlan{})

	var out, errb bytes.Buffer
	if code := run(append(append([]string{}, flags...), clean), &out, &errb); code != 0 {
		t.Fatalf("faithful stream exited %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "faithful") {
		t.Fatalf("verdict missing: %s", out.String())
	}

	// The wrong seed rebuilds different block placements: the stream
	// replays but the decisions diverge.
	out.Reset()
	errb.Reset()
	wrongSeed := []string{"-workload", "grep", "-nodes", "4", "-racks", "2", "-scale", "40", "-seed", "6", clean}
	if code := run(wrongSeed, &out, &errb); code != exitDiverged {
		t.Fatalf("diverging stream exited %d, want %d\nstdout: %s", code, exitDiverged, out.String())
	}

	// A fault recording moves slots outside the task lifecycle: rejected
	// with the distinct code and a machine-readable reason line.
	plan, err := mapsched.ParseFaultPlan("crash:1@10")
	if err != nil {
		t.Fatal(err)
	}
	faulty := recordEvents(t, mapsched.Batch(mapsched.Grep), plan, mapsched.WithReplication(2))
	out.Reset()
	errb.Reset()
	if code := run(append(append([]string{}, flags...), faulty), &out, &errb); code != exitNotReplayable {
		t.Fatalf("fault stream exited %d, want %d\nstdout: %s\nstderr: %s", code, exitNotReplayable, out.String(), errb.String())
	}
	line := strings.TrimSpace(errb.String())
	if !strings.HasPrefix(line, `mrreplay: status=not_replayable reason="`) || strings.Count(line, "\n") != 0 {
		t.Fatalf("stderr is not the one-line machine-readable rejection: %q", line)
	}

	// Workload names parse as mrsim parses them: in any case, short
	// forms, and all for the whole of Table II.
	for _, tc := range []struct {
		name  string
		batch []mapsched.JobDef
	}{
		{"all", mapsched.TableII()},
		{"WC", mapsched.Batch(mapsched.Wordcount)},
	} {
		out.Reset()
		errb.Reset()
		args := []string{"-workload", tc.name, "-nodes", "4", "-racks", "2", "-scale", "40", "-seed", "5",
			recordEvents(t, tc.batch, mapsched.FaultPlan{})}
		if code := run(args, &out, &errb); code != 0 || !strings.Contains(out.String(), "faithful") {
			t.Fatalf("-workload %s exited %d\nstdout: %s\nstderr: %s", tc.name, code, out.String(), errb.String())
		}
	}

	// Usage errors stay on the conventional code 2.
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("missing argument exited %d, want 2", code)
	}
}

// TestOpenSystemStreamNotReplayable records an open-system run, whose
// arrivals, admissions and preemptions move jobs outside the fixed
// batch's submission order, and expects the not-replayable verdict, not
// an input error.
func TestOpenSystemStreamNotReplayable(t *testing.T) {
	plan, err := mapsched.ParseArrivalPlan("horizon=300,maxactive=2,preempt=1")
	if err != nil {
		t.Fatal(err)
	}
	tenants, err := mapsched.ParseTenants("a:weight=1,rate=0.02;b:weight=2,rate=0.02")
	if err != nil {
		t.Fatal(err)
	}
	open := recordEvents(t, nil, mapsched.FaultPlan{}, mapsched.WithArrivals(plan), mapsched.WithTenants(tenants...))
	var out, errb bytes.Buffer
	args := []string{"-nodes", "4", "-racks", "2", "-scale", "40", "-seed", "5", open}
	if code := run(args, &out, &errb); code != exitNotReplayable {
		t.Fatalf("open-system stream exited %d, want %d\nstdout: %s\nstderr: %s", code, exitNotReplayable, out.String(), errb.String())
	}
	line := strings.TrimSpace(errb.String())
	if !strings.HasPrefix(line, `mrreplay: status=not_replayable reason="`) || !strings.Contains(line, "job_arrival") {
		t.Fatalf("stderr is not the one-line job_arrival rejection: %q", line)
	}
}
