// Command mrbench is the repository's benchmark: it measures what users
// of the simulator and of the placement service pay, end to end, on four
// fixed workloads, and with -trace 1 splits that cost by layer. Inputs
// come from -seed only; every run checks its outputs.
//
// Usage:
//
//	mrbench -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	mrbench [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	mrbench -compare BASE.json [...] -- CHANGE.json [...]
//
// With -workload it runs that workload in this process and prints every
// metric with its unit and, as the last line, one JSON object with the
// BENCHMARK.json metrics of the mode: the end-to-end metrics, or with
// -trace 1 the per-layer ones. Without -workload it runs every workload
// in turn, each in a child process of its own, and prints a table of
// them. -out writes every metric as JSON for -compare, which judges two
// sets of such files against the bounds and directions in
// BENCHMARK.json. Run it from the repository root, where BENCHMARK.json
// is; see README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"mapsched/internal/workload"
)

// benchFile is the benchmark definition, at the repository root.
const benchFile = "BENCHMARK.json"

// workloadNames lists the workloads in the order a set runs them.
var workloadNames = []string{"batch60", "batch5k", "opensys", "decide5k"}

// options are the settings of one workload run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one workload run: every metric it measured,
// and the operations it attempted and saw fail.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// count adds operations attempted and failed.
func (r *report) count(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

// fail records a failed correctness check.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// setFile is what -out writes: the reports of one set of runs.
type setFile struct {
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Workloads map[string]*report `json:"workloads"`
}

// simWorkloads are the simulator workloads by name; decide5k is the
// fourth.
var simWorkloads = map[string]simWorkload{
	"batch60": {setup: benchSetup, kinds: workload.Kinds()},
	"batch5k": {setup: scaleSetup, kinds: []workload.Kind{workload.Wordcount}, horizon: scaleHorizon},
	"opensys": {setup: benchSetup, open: true},
}

// runWorkload runs one workload in this process.
func runWorkload(name string, o options) (*report, error) {
	w, isSim := simWorkloads[name]
	if !isSim && name != "decide5k" {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	r := newReport(name, o)
	clock := newRefClock()
	var err error
	if isSim {
		// A simulation is single-threaded; on one P the reference passes
		// run on its thread (see refClock) and the garbage collector's
		// work is charged to the run it serves.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		err = w.measure(o, r, clock)
	} else {
		err = measureDecide(o, r, clock)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	finish(r)
	return r, nil
}

func newReport(name string, o options) *report {
	return &report{Workload: name, Seed: o.seed, Trace: o.trace, Correct: true, Metrics: map[string]metric{}}
}

// finish turns the run's failed operations into a failed check and a
// failure rate.
func finish(r *report) {
	if r.Failed > 0 {
		r.fail("%d of %d operations failed", r.Failed, r.Attempted)
	}
	r.set("error_rate", "ratio", float64(r.Failed)/float64(max(r.Attempted, 1)))
}

func main() {
	name := flag.String("workload", "", "run only this workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1 adds a traced run and prints the per-layer metrics")
	out := flag.String("out", "", "write every metric to this JSON file")
	compare := flag.Bool("compare", false, "compare result files: BASE... [--] CHANGE...")
	flag.Parse()

	bench, err := loadBench(benchFile)
	if err != nil {
		fatal(err)
	}
	if *compare {
		regressed, err := runCompare(os.Stdout, bench, flag.Args())
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1}
	if *name == "" {
		ok, err := runSet(bench, o, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	r, err := runWorkload(*name, o)
	if err != nil {
		fatal(err)
	}
	printReport(os.Stdout, bench, r)
	if *out != "" {
		set := &setFile{Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Workloads: map[string]*report{r.Workload: r}}
		if err := writeJSON(*out, set); err != nil {
			fatal(err)
		}
	}
	line, err := resultLine(bench, r)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mrbench:", err)
	os.Exit(2)
}

// uncorrected are the host times as measured, which printReport shows
// next to the end-to-end metrics corrected to the reference speed.
var uncorrected = []string{"run_s", "run_s_p50", "observed_run_s", "setup_raw_s", "host_speed"}

// printReport prints every metric of a run, the BENCHMARK.json ones
// first, then any failed check.
func printReport(w io.Writer, bench *benchSpec, r *report) {
	fmt.Fprintf(w, "%s seed %d: %d attempted, %d failed\n", r.Workload, r.Seed, r.Attempted, r.Failed)
	listed := map[string]bool{}
	section := func(title string, ms []benchMetric) {
		fmt.Fprintf(w, "  %s:\n", title)
		for _, m := range ms {
			listed[m.Name] = true
			fmt.Fprintf(w, "    %-34s %14s %s\n", m.Name, formatValue(r.Metrics[m.Name].Value), m.Unit)
		}
	}
	section("end-to-end", bench.EndToEnd)
	var raw []benchMetric
	for _, n := range uncorrected {
		if v, ok := r.Metrics[n]; ok {
			raw = append(raw, benchMetric{Name: n, Unit: v.Unit})
		}
	}
	section("uncorrected", raw)
	if r.Trace {
		section("per-layer", bench.PerLayer)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		if !listed[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintln(w, "  other:")
	for _, n := range names {
		v := r.Metrics[n]
		fmt.Fprintf(w, "    %-34s %14s %s\n", n, formatValue(v.Value), v.Unit)
	}
	if run, ok := r.Metrics["trace.run_s"]; ok {
		s, e, o := r.Metrics["sched.busy_s"].Value, r.Metrics["engine.rest_s"].Value, r.Metrics["obs.sink_s"].Value
		fmt.Fprintf(w, "  sched %.4f + engine.rest %.4f + obs.sink %.4f = run %.4f s (%.1f%% + %.1f%% + %.1f%%)\n",
			s, e, o, run.Value, 100*s/run.Value, 100*e/run.Value, 100*o/run.Value)
	}
	for _, e := range r.Errors {
		fmt.Fprintln(w, "  FAILED:", e)
	}
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', 7, 64) }

// resultLine is the run's machine-readable result: exactly the metrics
// BENCHMARK.json lists for the run's mode. A per-layer metric of a layer
// the workload never reaches reads 0; a missing end-to-end metric is an
// error.
func resultLine(bench *benchSpec, r *report) ([]byte, error) {
	out := map[string]metric{}
	for _, m := range bench.metrics(r.Trace) {
		v, ok := r.Metrics[m.Name]
		switch {
		case !ok && !r.Trace:
			return nil, fmt.Errorf("%s did not measure %s", r.Workload, m.Name)
		case ok && v.Unit != m.Unit:
			return nil, fmt.Errorf("%s measures %s in %s, BENCHMARK.json says %s", r.Workload, m.Name, v.Unit, m.Unit)
		}
		out[m.Name] = metric{Value: v.Value, Unit: m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, out})
}

// runSet runs every workload in a child process of this program, passes
// their output through and gathers their reports; it reports whether
// every run was correct.
func runSet(bench *benchSpec, o options, out string) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	dir, err := os.MkdirTemp("", "mrbench")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	set := &setFile{Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Workloads: map[string]*report{}}
	ok := true
	for _, name := range workloadNames {
		r, err := runChild(exe, name, o, filepath.Join(dir, name+".json"))
		if err != nil {
			ok = false
			fmt.Fprintf(os.Stderr, "mrbench: %s: %v\n", name, err)
			continue
		}
		ok = ok && r.Correct
		set.Workloads[name] = r
	}
	printSetTable(os.Stdout, bench, set)
	if out != "" {
		if err := writeJSON(out, set); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// runChild runs one workload in a child process that writes its report
// to path, and reads the report back. Exit status 1 is a run whose
// checks failed, which its report records; any other failure is an
// error.
func runChild(exe, name string, o options, path string) (*report, error) {
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", boolDigit(o.trace),
		"-out", path)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			return nil, err
		}
	}
	var set setFile
	if err := readJSON(path, &set); err != nil {
		return nil, err
	}
	r := set.Workloads[name]
	if r == nil {
		return nil, fmt.Errorf("%s holds no report", path)
	}
	return r, nil
}

func boolDigit(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// printSetTable prints the BENCHMARK.json metrics of the set's mode, one
// row per metric and one column per workload.
func printSetTable(w io.Writer, bench *benchSpec, set *setFile) {
	fmt.Fprintf(w, "\n%-34s", "metric")
	for _, n := range workloadNames {
		fmt.Fprintf(w, " %14s", n)
	}
	fmt.Fprintln(w)
	for _, m := range bench.metrics(set.Trace) {
		fmt.Fprintf(w, "%-34s", m.Name+" ("+m.Unit+")")
		for _, n := range workloadNames {
			cell := "-"
			if r := set.Workloads[n]; r != nil {
				if v, ok := r.Metrics[m.Name]; ok {
					cell = formatValue(v.Value)
				}
			}
			fmt.Fprintf(w, " %14s", cell)
		}
		fmt.Fprintln(w)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
