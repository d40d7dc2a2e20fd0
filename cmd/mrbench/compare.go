package main

import (
	"fmt"
	"io"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the program reads: the metrics
// each mode reports, with the bound and direction of each end-to-end one.
type benchSpec struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBench(path string) (*benchSpec, error) {
	var b benchSpec
	if err := readJSON(path, &b); err != nil {
		return nil, err
	}
	if len(b.EndToEnd) == 0 || len(b.PerLayer) == 0 {
		return nil, fmt.Errorf("%s lists no metrics", path)
	}
	for _, m := range b.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better is %q", path, m.Name, m.Better)
		}
	}
	return &b, nil
}

// metrics lists the metrics of one mode.
func (b *benchSpec) metrics(trace bool) []benchMetric {
	if trace {
		return b.PerLayer
	}
	return b.EndToEnd
}

// deterministic names the results a fixed seed reproduces exactly on an
// unchanged simulator; -compare reports whether they moved.
var deterministic = []string{"sim.events", "sim_seconds", "sim_finished_jobs", "sim_mean_jct_s", "sim_tasks_finished", "sim_remote_gb", "sim_node_local_pct", "sim_jct_p50_s", "sim_jct_p95_s", "topology.flows"}

// runCompare judges a change's runs against a base's: for every
// end-to-end metric and workload it prints each side's quartiles and a
// verdict under the metric's bound, then whether the deterministic
// results of each seed both sides ran are identical. It reports whether
// any pair got worse. args are the base's result files, "--", and the
// change's; two files need no separator.
func runCompare(w io.Writer, bench *benchSpec, args []string) (bool, error) {
	baseFiles, changeFiles, err := splitSides(args)
	if err != nil {
		return false, err
	}
	base, err := loadSide(baseFiles)
	if err != nil {
		return false, err
	}
	change, err := loadSide(changeFiles)
	if err != nil {
		return false, err
	}
	var names []string
	for _, n := range workloadNames {
		if base[n] != nil && change[n] != nil {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return false, fmt.Errorf("the two sides share no workload")
	}

	regressed := false
	fmt.Fprintf(w, "%-20s %-9s %-38s %-38s %8s %7s  %s\n", "metric", "workload", "base q1/median/q3", "change q1/median/q3", "change", "bound", "verdict")
	for _, m := range bench.EndToEnd {
		for _, n := range names {
			a, b := values(base[n], m.Name), values(change[n], m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, delta := judge(m, a, b)
			if v == "worse" {
				regressed = true
			}
			fmt.Fprintf(w, "%-20s %-9s %-38s %-38s %+7.1f%% %6.1f%%  %s\n", m.Name, n, spreadText(a), spreadText(b), 100*delta, 100*m.Bound, v)
		}
	}
	for _, n := range names {
		for _, name := range deterministic {
			if v := sameResults(base[n], change[n], name); v != "" {
				fmt.Fprintf(w, "%-20s %-9s %-38s %-38s %8s %7s  %s\n", name, n,
					spreadText(values(base[n], name)), spreadText(values(change[n], name)), "", "", v)
			}
		}
	}
	return regressed, nil
}

func splitSides(args []string) (base, change []string, err error) {
	for i, a := range args {
		if a == "--" {
			base, change = args[:i], args[i+1:]
			if len(base) == 0 || len(change) == 0 {
				return nil, nil, fmt.Errorf("-compare: a side has no files")
			}
			return base, change, nil
		}
	}
	if len(args) != 2 {
		return nil, nil, fmt.Errorf("-compare takes BASE CHANGE, or BASE... -- CHANGE...")
	}
	return args[:1], args[1:], nil
}

// loadSide reads result files and groups their reports by workload.
func loadSide(files []string) (map[string][]*report, error) {
	out := map[string][]*report{}
	for _, f := range files {
		var set setFile
		if err := readJSON(f, &set); err != nil {
			return nil, err
		}
		for _, w := range workloadNames {
			r := set.Workloads[w]
			if r == nil {
				continue
			}
			if r.Trace {
				return nil, fmt.Errorf("%s: %s is a traced run; compare untraced runs", f, w)
			}
			out[w] = append(out[w], r)
		}
	}
	return out, nil
}

func values(reps []*report, name string) []float64 {
	var out []float64
	for _, r := range reps {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// judge returns the verdict for one (metric, workload) pair and how much
// worse the change's median is, as a share of the base's (negative when
// better). A spread wider than the bound on either side leaves the pair
// unresolved, unless every change run beats every base run.
func judge(m benchMetric, a, b []float64) (string, float64) {
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	worse := func(x, y float64) float64 { // how much worse y is than x
		if x == 0 {
			return 0
		}
		if m.Better == "higher" {
			return (x - y) / x
		}
		return (y - x) / x
	}
	delta := worse(am, bm)
	spread := 0.0
	if am != 0 {
		spread = (aq3 - aq1) / am
	}
	if bm != 0 && (bq3-bq1)/bm > spread {
		spread = (bq3 - bq1) / bm
	}
	switch {
	case spread > m.Bound:
		if allBetter(m, a, b) {
			return "better", delta
		}
		return "unresolved", delta
	case delta > m.Bound:
		return "worse", delta
	case delta < -m.Bound:
		return "better", delta
	}
	return "within bound", delta
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(m benchMetric, a, b []float64) bool {
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if m.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// sameResults compares a deterministic result seed by seed: "identical"
// when every run of every seed both sides ran reads the same, "changed"
// otherwise, and "" when no seed has the result on both sides.
func sameResults(base, change []*report, name string) string {
	bySeed := map[int64][]float64{}
	for _, r := range base {
		if v, ok := r.Metrics[name]; ok {
			bySeed[r.Seed] = append(bySeed[r.Seed], v.Value)
		}
	}
	verdict := ""
	for _, r := range change {
		v, ok := r.Metrics[name]
		seen := bySeed[r.Seed]
		if !ok || len(seen) == 0 {
			continue
		}
		verdict = "identical"
		for _, x := range seen {
			if x != v.Value {
				return "changed"
			}
		}
	}
	return verdict
}

func spreadText(v []float64) string {
	q1, q2, q3 := quartiles(v)
	return fmt.Sprintf("%s/%s/%s", formatValue(q1), formatValue(q2), formatValue(q3))
}
