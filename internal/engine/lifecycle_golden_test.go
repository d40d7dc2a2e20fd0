package engine

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mapsched/internal/faults"
	"mapsched/internal/obs"
	"mapsched/internal/sched"
)

// This golden pins the engine's task lifecycle under the probabilistic
// scheduler on a two-rack cluster with cross traffic: maps and reduces
// fail transiently, die with a crashed node (whose detection re-executes
// lost map output) and stretch under a mid-flight slowdown. It holds every
// non-flow event, byte for byte, then the run's utilization and byte
// totals.
//
// Regenerate with: go test ./internal/engine -run TestFaultLifecycleGolden -update-golden
var updateGolden = flag.Bool("update-golden", false,
	"rewrite the goldens under testdata")

// faultLifecycleConfig crashes node 4 while reduces run there, so its
// detection restarts them and re-executes the map output it held, and
// slows node 1 for a window that opens and closes while reduces compute
// there.
func faultLifecycleConfig() Config {
	cfg := tinyConfig()
	cfg.Seed = 2
	cfg.CrossTraffic = 12
	cfg.Faults = faults.Plan{
		Crashes:      []faults.NodeCrash{{Node: 4, At: 6}},
		Slowdowns:    []faults.NodeSlowdown{{Node: 1, At: 9, Duration: 33, Factor: 3}},
		TaskFailProb: 0.05,
	}
	return cfg
}

func TestFaultLifecycleGolden(t *testing.T) {
	res, got := lifecycleRun(t, faultLifecycleConfig())
	// The scenario must keep reaching every recovery path, or the golden
	// stops guarding them.
	if res.AttemptFailures == 0 || res.RelaunchedMaps == 0 || res.RelaunchedReduces == 0 || res.Unfinished != 0 {
		t.Fatalf("scenario no longer exercises the lifecycle: %d attempt failures, "+
			"%d/%d map/reduce relaunches, %d unfinished",
			res.AttemptFailures, res.RelaunchedMaps, res.RelaunchedReduces, res.Unfinished)
	}
	checkGolden(t, filepath.Join("testdata", "fault_lifecycle.golden"), got)
}

// lifecycleRun runs cfg over faultSpecs and returns the result and the
// golden text: the non-flow events, then the totals line.
func lifecycleRun(t *testing.T, cfg Config) (*Result, string) {
	t.Helper()
	var buf bytes.Buffer
	log := obs.NewJSONL(&buf)
	s, err := New(cfg, faultSpecs(t, 0.45),
		sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Attach(log); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if line == "" {
			continue
		}
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &head); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if !strings.HasPrefix(head.Type, "flow_") {
			got.WriteString(line)
		}
	}
	// Utilization is a time-average of slot samples: a missing sample moves
	// it without moving any event, so the golden ends with the totals.
	fmt.Fprintf(&got, "makespan=%v map_util=%v reduce_util=%v map_remote=%v shuffle_remote=%v shuffle_local=%v\n",
		res.Makespan, res.MapUtilization, res.ReduceUtilization,
		res.MapRemoteBytes, res.ShuffleRemoteBytes, res.ShuffleLocalBytes)
	return res, got.String()
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update-golden.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-golden): %v", err)
	}
	if got != string(want) {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				t.Fatalf("event stream diverged from %s at line %d:\nwant %s\ngot  %s", path, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("event stream diverged from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
