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

// The kernel goldens in the root package go through the public API, which
// cannot turn speculation or heterogeneity on. This golden pins the
// engine's task lifecycle where maps and reduces both run backups, fail
// transiently, die with a crashed node and stretch under a mid-flight
// slowdown: every non-flow event, byte for byte, then the run's
// utilization and byte totals.
//
// Regenerate with: go test ./internal/engine -run TestSpeculationGolden -update-golden
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/speculation.golden")

// speculationGoldenConfig turns on every map/reduce twin of the lifecycle.
// The crash kills running maps and reduces, and its detection re-executes
// lost map output; the slowdown starts while maps compute on node 1 and
// ends while a reduce computes there.
func speculationGoldenConfig() Config {
	cfg := tinyConfig()
	cfg.Seed = 2
	cfg.Speculation = true
	cfg.SpecSlowdown = 1.25
	cfg.SpecMinCompleted = 2
	cfg.CrossTraffic = 12
	cfg.SlowNodeFraction = 0.4
	cfg.SlowFactor = 6
	cfg.Faults = faults.Plan{
		Crashes:      []faults.NodeCrash{{Node: 4, At: 6}},
		Slowdowns:    []faults.NodeSlowdown{{Node: 1, At: 9, Duration: 33, Factor: 3}},
		TaskFailProb: 0.05,
	}
	return cfg
}

func TestSpeculationGolden(t *testing.T) {
	var buf bytes.Buffer
	log := obs.NewJSONL(&buf)
	s, err := New(speculationGoldenConfig(), faultSpecs(t, 0.45),
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
	// The scenario must keep reaching both halves of every twin, or the
	// golden stops guarding them.
	if res.Speculated == 0 || res.SpecWins == 0 || res.SpeculatedReduces == 0 ||
		res.SpecReduceWins == 0 || res.AttemptFailures == 0 || res.RelaunchedMaps == 0 ||
		res.RelaunchedReduces == 0 || res.Unfinished != 0 {
		t.Fatalf("scenario no longer exercises the lifecycle: %d/%d map backups/wins, "+
			"%d/%d reduce backups/wins, %d attempt failures, %d/%d map/reduce relaunches, %d unfinished",
			res.Speculated, res.SpecWins, res.SpeculatedReduces, res.SpecReduceWins,
			res.AttemptFailures, res.RelaunchedMaps, res.RelaunchedReduces, res.Unfinished)
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
	path := filepath.Join("testdata", "speculation.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-golden): %v", err)
	}
	if got.String() != string(want) {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				t.Fatalf("event stream diverged from %s at line %d:\nwant %s\ngot  %s", path, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("event stream diverged from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
