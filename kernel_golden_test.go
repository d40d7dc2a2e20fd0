package mapsched

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// Kernel-speed work (the event queue, pooled events/flows/attempts,
// coalesced recomputes) is gated on the scheduler's decision stream staying
// bit-identical. The files under testdata/kernel_golden were recorded before
// the pass and pin every non-flow event (submissions, offers, assignments,
// skips, starts, finishes, speculation, faults) byte for byte. Flow events
// are excluded by design: kernel work may legitimately change which flow
// events a run emits, but it must never move a decision.
//
// Regenerate with: go test -run TestKernelGoldenDecisionStreams -update-golden
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/kernel_golden decision-stream files")

type goldenScenario struct {
	name string
	cfg  ClusterConfig
	defs []JobDef
	kind SchedulerKind
	set  func(*ClusterConfig) // run settings applied over cfg, or nil
	opts []Option
}

// new builds the scenario's simulation, with extra ahead of its options.
func (sc goldenScenario) new(t *testing.T, extra ...Option) *Simulation {
	t.Helper()
	cfg := sc.cfg
	if sc.set != nil {
		sc.set(&cfg)
	}
	sim, err := New(cfg, sc.defs, sc.kind, append(extra, sc.opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// rackConfig is seededConfig reshaped to racks × perRack nodes, so the
// goldens pin multi-rack and singleton-rack decision streams in both
// distance modes.
func rackConfig(racks, perRack int, seed int64) ClusterConfig {
	cfg := seededConfig(seed)
	cfg.Topology.Racks = racks
	cfg.Topology.NodesPerRack = perRack
	return cfg
}

// goldenScenarios lists the pinned runs. Most are fixed batches; the last,
// opensys_faulty_s5, combines an arrival stream, preemption and faults
// (crash, slowdown, link degradation, attempt failures and blacklisting),
// so the order in which the engine walks running tasks of re-admitted,
// out-of-ID-order jobs is pinned too. New scenarios go at the end:
// TestJSONLSinkMatchesMarshal picks one by index.
func goldenScenarios(t *testing.T) []goldenScenario {
	t.Helper()
	plan, err := ParseFaultPlan("crash:3@12;slow:5@5+40*3;link:7@4+30*0.2;replica:9@8;taskfail:0.05")
	if err != nil {
		t.Fatal(err)
	}
	openPlan, err := ParseFaultPlan("crash:2@180;slow:4@60+120*2.5;link:6@90+60*0.2;taskfail:0.1;blacklist:2;attempts:10")
	if err != nil {
		t.Fatal(err)
	}
	scale := []Option{WithScale(30)}
	netcond := func(c *ClusterConfig) { c.CostMode = ModeNetworkCondition; c.CrossTraffic = 6 }
	return []goldenScenario{
		{"terasort_prob_s11", seededConfig(11), Batch(Terasort), SchedulerProbabilistic, nil, scale},
		{"wordcount_fair_s7", seededConfig(7), Batch(Wordcount), SchedulerFair, nil, scale},
		{"grep_coupling_s3", seededConfig(3), Batch(Grep), SchedulerCoupling,
			func(c *ClusterConfig) { c.CrossTraffic = 25 }, scale},
		{"terasort_faulty_s11", seededConfig(11), Batch(Terasort), SchedulerProbabilistic,
			func(c *ClusterConfig) { c.Faults = plan }, scale},
		{"terasort_prob_4x3_s5", rackConfig(4, 3, 5), Batch(Terasort), SchedulerProbabilistic, nil, scale},
		{"wordcount_prob_12x1_s9", rackConfig(12, 1, 9), Batch(Wordcount), SchedulerProbabilistic, nil, scale},
		{"terasort_netcond_4x3_s5", rackConfig(4, 3, 5), Batch(Terasort), SchedulerProbabilistic, netcond, scale},
		{"wordcount_netcond_12x1_s9", rackConfig(12, 1, 9), Batch(Wordcount), SchedulerProbabilistic, netcond, scale},
		{"opensys_faulty_s5", openGoldenConfig(), nil, SchedulerProbabilistic,
			func(c *ClusterConfig) { c.Faults = openPlan }, openGoldenOptions()},
		// 90 nodes: rack 2 (nodes 60–89) straddles the 64-node word
		// boundary of the availability sets.
		{"grep_coupling_3x30_s4", rackConfig(3, 30, 4), Batch(Grep), SchedulerCoupling, nil, scale},
		{"terasort_netcond_3x30_s6", rackConfig(3, 30, 6), Batch(Terasort), SchedulerProbabilistic, netcond, scale},
	}
}

// goldenMustEmit names, per scenario, the event types its stream must
// contain, so a retuned scenario cannot silently stop covering the paths
// it was added to pin.
var goldenMustEmit = map[string][]string{
	"opensys_faulty_s5": {"job_preempt", "node_fail", "failure_detected", "task_relaunch",
		"attempt_fail", "node_blacklist", "node_unblacklist"},
}

// decisionStream runs the scenario and returns the JSONL event log with all
// flow_* events removed, preserving the exact bytes of the remaining lines.
func decisionStream(t *testing.T, sc goldenScenario) string {
	t.Helper()
	var buf bytes.Buffer
	log := NewJSONLSink(&buf)
	if _, err := sc.new(t, WithObserver(log)).Run(); err != nil {
		t.Fatal(err)
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
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
		if strings.HasPrefix(head.Type, "flow_") {
			continue
		}
		out.WriteString(line)
	}
	return out.String()
}

func TestKernelGoldenDecisionStreams(t *testing.T) {
	for _, sc := range goldenScenarios(t) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			got := decisionStream(t, sc)
			if got == "" {
				t.Fatal("empty decision stream")
			}
			for _, typ := range goldenMustEmit[sc.name] {
				if !strings.Contains(got, `"type":"`+typ+`"`) {
					t.Fatalf("scenario never emitted %s; it needs retuning", typ)
				}
			}
			path := filepath.Join("testdata", "kernel_golden", sc.name+".jsonl")
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
				t.Fatalf("decision stream diverged from pre-pass golden %s:\n%s",
					path, firstDiff(string(want), got))
			}
		})
	}
}

// TestJSONLSinkMatchesMarshal pins the whole event log, flow events
// included, to encoding/json: a JSONL sink and a json.Marshal observer
// attached to the same run must write the same bytes. The kernel goldens
// above drop flow_* lines.
func TestJSONLSinkMatchesMarshal(t *testing.T) {
	for _, sc := range []goldenScenario{
		crossTrafficScenario(t),
		{"opensys_multitenant_s5", openGoldenConfig(), nil, SchedulerProbabilistic, nil, openGoldenOptions()},
	} {
		t.Run(sc.name, func(t *testing.T) {
			var got, want bytes.Buffer
			sink := NewJSONLSink(&got)
			marshal := ObserverFunc(func(e Event) {
				b, err := json.Marshal(e)
				if err != nil {
					t.Fatal(err)
				}
				want.Write(b)
				want.WriteByte('\n')
			})
			if _, err := sc.new(t, WithObserver(sink), WithObserver(marshal)).Run(); err != nil {
				t.Fatal(err)
			}
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			checkFlowEvents(t, want.String())
			if got.String() != want.String() {
				t.Fatalf("JSONL sink diverged from json.Marshal:\n%s", firstDiff(want.String(), got.String()))
			}
		})
	}
}

// crossTrafficScenario is the faulty Terasort golden scenario with
// persistent cross-traffic flows beside its transfers.
func crossTrafficScenario(t *testing.T) goldenScenario {
	t.Helper()
	sc := goldenScenarios(t)[3]
	sc.name += "_crosstraffic"
	faults := sc.set
	sc.set = func(c *ClusterConfig) { faults(c); c.CrossTraffic = 25 }
	return sc
}

// TestRetainedEventsStayValid holds an observer to no lifetime rule: it
// may keep every event it is handed. The flow network carves flow-event
// payloads from blocks of its own, so after the run each retained event
// must still marshal to the line the JSONL sink wrote when it was
// emitted, and appending to a retained Links slice must not write into
// the links of the flow_start after it.
func TestRetainedEventsStayValid(t *testing.T) {
	sc := crossTrafficScenario(t)
	var log bytes.Buffer
	sink := NewJSONLSink(&log)
	var kept []Event
	keep := ObserverFunc(func(e Event) { kept = append(kept, e) })
	if _, err := sc.new(t, WithObserver(sink), WithObserver(keep)).Run(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	checkFlowEvents(t, log.String())

	prev := -1 // index of the last flow_start with links
	appended := 0
	for i, e := range kept {
		if e.Type != "flow_start" || e.Flow == nil || len(e.Flow.Links) == 0 {
			continue
		}
		if prev >= 0 {
			before := kept[prev].Flow.Links
			next := append([]int(nil), e.Flow.Links...)
			_ = append(before, -1, -2, -3, -4)
			if !slices.Equal(e.Flow.Links, next) {
				t.Fatalf("appending to event %d's links rewrote event %d's: %v, want %v",
					prev, i, e.Flow.Links, next)
			}
			appended++
		}
		prev = i
	}
	if appended == 0 {
		t.Fatal("the run emitted fewer than two flow_start events with links")
	}

	lines := strings.SplitAfter(log.String(), "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	if len(lines) != len(kept) {
		t.Fatalf("the sink wrote %d lines for %d retained events", len(lines), len(kept))
	}
	for i, e := range kept {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(b) + "\n"; got != lines[i] {
			t.Fatalf("retained event %d changed after emission:\n  emitted:  %s  retained: %s", i, lines[i], got)
		}
	}
}

// checkFlowEvents fails a log that lacks flow_start or flow_finish
// events, so a whole-log comparison cannot pass by comparing no flow
// events, or that holds a flow_rate line, a type the network no longer
// emits.
func checkFlowEvents(t *testing.T, log string) {
	t.Helper()
	for _, typ := range []string{"flow_start", "flow_finish"} {
		if !strings.Contains(log, `"type":"`+typ+`"`) {
			t.Fatalf("the run emitted no %s events", typ)
		}
	}
	if strings.Contains(log, `"type":"flow_rate"`) {
		t.Fatal("the run emitted flow_rate events")
	}
}

// firstDiff locates the first differing line for a readable failure message.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return "line " + itoa(i+1) + ":\n  want: " + wl[i] + "\n  got:  " + gl[i]
		}
	}
	return "line counts differ: want " + itoa(len(wl)) + ", got " + itoa(len(gl))
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}
