package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"mapsched/internal/engine"
	"mapsched/internal/experiments"
	"mapsched/internal/metrics"
	"mapsched/internal/obs"
	"mapsched/internal/workload"
)

// benchJSON is BENCHMARK.json, two directories up at the repository root.
var benchJSON = filepath.Join("..", "..", "BENCHMARK.json")

// heldOutSeed is a seed the benchmark was not tuned on.
const heldOutSeed = 11

// TestHandBuiltRunsMatchExperiments shows that the benchmark's own
// construction of each simulation — the builder it may wrap, the input
// generation timed apart from engine.New — simulates exactly what
// experiments.Setup.RunBatch and RunOpen simulate.
func TestHandBuiltRunsMatchExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the open system four times")
	}
	for _, seed := range []int64{1, heldOutSeed} {
		s := benchSetup(seed)
		var want []*engine.Result
		for _, kind := range workload.Kinds() {
			res, err := s.RunBatch(kind, s.BuilderFor(experiments.Probabilistic))
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, res)
		}
		nodes := s.Engine.Topology.Racks * s.Engine.Topology.NodesPerRack
		tenants := experiments.CalibrateRates(experiments.OpenTenants(), openRho, s)
		open, err := s.RunOpen(experiments.OpenPlan(nodes), tenants, s.BuilderFor(experiments.Probabilistic))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, open)

		var got []*engine.Result
		for _, w := range []simWorkload{simWorkloads["batch60"], simWorkloads["opensys"]} {
			p, err := w.prepare(seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, sim := range p.sims {
				res, err := sim.Run()
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, res)
			}
		}
		for i := range want {
			a, b := want[i], got[i]
			if a.Events != b.Events || a.Makespan != b.Makespan {
				t.Errorf("seed %d run %d: %d events ending at %v, want %d ending at %v", seed, i, b.Events, b.Makespan, a.Events, a.Makespan)
			}
			if x, y := a.JobCompletionCDF().Mean(), b.JobCompletionCDF().Mean(); x != y {
				t.Errorf("seed %d run %d: mean JCT %v, want %v", seed, i, y, x)
			}
			if x, y := simTail(metrics.NewCDF(a.SteadyJCTs())), simTail(metrics.NewCDF(b.SteadyJCTs())); x != y && !(math.IsNaN(x) && math.IsNaN(y)) {
				t.Errorf("seed %d run %d: steady p95 %v, want %v", seed, i, y, x)
			}
		}
	}
}

// TestTracingChangesNoDecision runs batch60, and batch5k's horizon on a
// tenth of its nodes, with and without the timing decorator and the
// counting observer and compares the full event logs, then checks that
// the recorded flows replay exactly, up to the horizon where flows are
// still in flight.
func TestTracingChangesNoDecision(t *testing.T) {
	small := simWorkloads["batch5k"]
	small.setup = func(seed int64) experiments.Setup {
		s := scaleSetup(seed)
		s.Engine.Topology.Racks = 25
		return s
	}
	seeds := []int64{1, heldOutSeed}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, w := range []simWorkload{simWorkloads["batch60"], small} {
		for _, seed := range seeds {
			checkTracing(t, w, seed)
		}
	}
}

// checkTracing runs one seed of w plain and traced and compares them.
func checkTracing(t *testing.T, w simWorkload, seed int64) {
	t.Helper()
	var plainLog, tracedLog bytes.Buffer
	plain, err := w.prepare(seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	plainSink := obs.NewJSONL(&plainLog)
	if err := plain.attach(plainSink); err != nil {
		t.Fatal(err)
	}
	want, err := plain.run()
	if err != nil {
		t.Fatal(err)
	}

	tr := newTracer()
	traced, err := w.prepare(seed, tr.wrap)
	if err != nil {
		t.Fatal(err)
	}
	tracedSink := obs.NewJSONL(&tracedLog)
	if err := traced.attach(tracedSink); err != nil {
		t.Fatal(err)
	}
	logs := make([]*flowLog, len(traced.sims))
	for i, s := range traced.sims {
		logs[i] = tr.newFlowLog()
		if err := s.Attach(logs[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := traced.run()
	if err != nil {
		t.Fatal(err)
	}
	if err := plainSink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tracedSink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sameSimulation(want, got); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if !bytes.Equal(plainLog.Bytes(), tracedLog.Bytes()) {
		t.Fatalf("seed %d: the traced run's event log differs from the plain run's", seed)
	}
	if len(tr.mapUS) == 0 || tr.mapAssigned == 0 {
		t.Fatalf("seed %d: the decorator saw %d map calls, %d assignments", seed, len(tr.mapUS), tr.mapAssigned)
	}
	var rp replayStats
	for _, l := range logs {
		if err := l.replay(traced.topo, traced.end, &rp); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if rp.flows == 0 || rp.maxErr > replayTolerance {
		t.Fatalf("seed %d: replayed %d flows, max error %g s", seed, rp.flows, rp.maxErr)
	}
}

// TestSmoke runs every workload once, traced, and checks that it passes
// its own correctness checks and reports every BENCHMARK.json metric.
// With -short the simulator workloads run 30x smaller jobs, and batch5k
// 500 nodes, so that the four take seconds.
func TestSmoke(t *testing.T) {
	bench, err := loadBench(benchJSON)
	if err != nil {
		t.Fatal(err)
	}
	o := options{seed: heldOutSeed, seconds: 1.5, trace: true}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var (
				r   *report
				err error
			)
			if w, ok := simWorkloads[name]; ok && testing.Short() {
				setup := w.setup
				w.setup = func(seed int64) experiments.Setup {
					s := setup(seed)
					s.Workload.Scale *= 30
					s.Engine.Topology.Racks = min(s.Engine.Topology.Racks, 25)
					return s
				}
				r = newReport(name, o)
				err = w.measure(o, r, newRefClock())
				finish(r)
			} else {
				r, err = runWorkload(name, o)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Attempted == 0 || r.Failed != 0 {
				t.Fatalf("%d attempted, %d failed: %v", r.Attempted, r.Failed, r.Errors)
			}
			if _, err := resultLine(bench, r); err != nil {
				t.Fatal(err)
			}
			r.Trace = false
			if _, err := resultLine(bench, r); err != nil {
				t.Fatal(err)
			}
			for _, m := range bench.EndToEnd {
				if v := r.Metrics[m.Name].Value; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", m.Name, v)
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64 // statistics.quantiles(in, n=4)
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{7, 1}, [3]float64{-0.5, 4, 8.5}}, // extrapolated, as Python does
	} {
		q1, q2, q3 := quartiles(c.in)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
	if got := quantile([]float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}, 0.10); got != 1 {
		t.Errorf("nearest-rank p10 of 1..10 = %v, want 1", got)
	}
	var l latencies
	if got := l.quantile(0.5); got != 0 {
		t.Errorf("the median of no latencies = %v, want 0", got)
	}
	for i := 100; i >= 1; i-- {
		l.add(float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{0.01, 1}, {0.5, 50}, {0.99, 99}, {1, 100}} {
		if got := l.quantile(c.q); math.Abs(got-c.want) > 0.01*c.want {
			t.Errorf("latency quantile %v of 1..100 µs = %v, want %v within 1%%", c.q, got, c.want)
		}
	}
	if l.n != 100 || l.sum != 5050 {
		t.Errorf("%d latencies summing to %v, want 100 and 5050", l.n, l.sum)
	}
}

func TestJudge(t *testing.T) {
	lower := benchMetric{Name: "t", Better: "lower", Bound: 0.10}
	higher := benchMetric{Name: "t", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m    benchMetric
		a, b []float64
		want string
	}{
		{lower, []float64{100, 101, 99}, []float64{104, 103, 105}, "within bound"},
		{lower, []float64{100, 101, 99}, []float64{120, 121, 119}, "worse"},
		{lower, []float64{100, 101, 99}, []float64{80, 81, 79}, "better"},
		{higher, []float64{100, 101, 99}, []float64{80, 81, 79}, "worse"},
		{lower, []float64{50, 100, 150, 200}, []float64{100, 110}, "unresolved"},
		{lower, []float64{50, 100, 150, 200}, []float64{10, 20}, "better"},
	} {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.m.Better, c.a, c.b, got, c.want)
		}
	}
}

func TestResultLine(t *testing.T) {
	bench := &benchSpec{
		EndToEnd: []benchMetric{{Name: "ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.2}},
		PerLayer: []benchMetric{{Name: "topology.flows", Unit: "count"}},
	}
	r := newReport("decide5k", options{})
	if _, err := resultLine(bench, r); err == nil {
		t.Error("a missing end-to-end metric is not an error")
	}
	r.set("ops_per_s", "1/s", 5)
	if _, err := resultLine(bench, r); err == nil {
		t.Error("a unit that differs from BENCHMARK.json's is not an error")
	}
	r.set("ops_per_s", "op/s", 5)
	line, err := resultLine(bench, r)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"correct":true,"attempted":0,"failed":0,"metrics":{"ops_per_s":{"value":5,"unit":"op/s"}}}`; string(line) != want {
		t.Errorf("got %s, want %s", line, want)
	}
	r.Trace = true
	if line, err = resultLine(bench, r); err != nil || !strings.Contains(string(line), `"topology.flows":{"value":0,"unit":"count"}`) {
		t.Errorf("an idle layer's metric: %s, %v", line, err)
	}
}

// TestCompare feeds -compare two sides of result files and checks the
// verdicts and the exit status they imply.
func TestCompare(t *testing.T) {
	bench, err := loadBench(benchJSON)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, seed int64, opsPerS, events float64) string {
		r := newReport("batch60", options{seed: seed})
		r.set("ops_per_s", "op/s", opsPerS)
		r.set("sim.events", "count", events)
		path := filepath.Join(dir, name)
		if err := writeJSON(path, &setFile{Seed: seed, Workloads: map[string]*report{"batch60": r}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := []string{write("a1", 1, 100, 7), write("a2", 2, 102, 8), write("a3", 3, 98, 9)}
	same := []string{write("b1", 1, 101, 7), write("b2", 2, 99, 8), write("b3", 3, 100, 9)}
	slower := []string{write("c1", 1, 60, 7), write("c2", 2, 61, 8), write("c3", 3, 59, 10)}

	var out bytes.Buffer
	regressed, err := runCompare(&out, bench, append(append(append([]string{}, base...), "--"), same...))
	if err != nil {
		t.Fatal(err)
	}
	if regressed || !strings.Contains(out.String(), "within bound") || !strings.Contains(out.String(), "identical") {
		t.Errorf("an unchanged side:\n%s", out.String())
	}
	out.Reset()
	regressed, err = runCompare(&out, bench, append(append(append([]string{}, base...), "--"), slower...))
	if err != nil {
		t.Fatal(err)
	}
	if !regressed || !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "changed") {
		t.Errorf("a slower side with a changed result:\n%s", out.String())
	}
	if _, err := runCompare(&out, bench, base); err == nil {
		t.Error("three files and no separator are not an error")
	}
}

// TestRefClock checks that a reference pass allocates nothing, so that it
// neither triggers nor pays for the measured work's collections, that the
// clock reads a plausible speed with and without its background loop, and
// that stop waits for the loop.
func TestRefClock(t *testing.T) {
	c := newRefClock()
	if a := testing.AllocsPerRun(2000, c.pass); a != 0 {
		t.Errorf("a pass allocates %v objects", a)
	}
	if len(c.m) > refLive {
		t.Errorf("the pass's map holds %d keys, more than %d", len(c.m), refLive)
	}
	c.mark()
	c.pass()
	if iv := c.read(); !(iv.speed > 0.01 && iv.speed < 100) || iv.busy <= 0 {
		t.Errorf("one pass: %+v", iv)
	}
	c.startLoop()
	c.mark()
	if iv := c.read(); !(iv.speed > 0.01 && iv.speed < 100) {
		t.Errorf("speed %v", iv.speed)
	}
	done := c.done
	c.stop()
	select {
	case <-done:
	default:
		t.Error("stop returned before the loop exited")
	}
}
