// Command mrtrace analyzes a JSON task timeline written by mrsim -trace:
// it prints per-job phase statistics, per-node occupancy, a locality
// summary, and an ASCII Gantt chart of cluster activity. It can fold in
// a JSONL event log written by mrsim -events (scheduler decisions with
// the C / C_avg / P breakdown, flow events) and export both views as a
// Chrome trace_event file for chrome://tracing or ui.perfetto.dev.
//
// Usage:
//
//	mrsim -sched probabilistic -trace run.json -events run.events.jsonl
//	mrtrace [-gantt] [-node N] [-events run.events.jsonl] [-chrome out.json] run.json
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"mapsched/internal/metrics"
	"mapsched/internal/obs"
	"mapsched/internal/trace"
)

func main() {
	var (
		gantt     = flag.Bool("gantt", false, "print an ASCII cluster activity chart")
		nodeFlag  = flag.Int("node", -1, "print the timeline of one node")
		eventsIn  = flag.String("events", "", "JSONL event log (mrsim -events) to summarize and fold into -chrome")
		chromeOut = flag.String("chrome", "", "write a Chrome trace_event file to this path")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mrtrace [-gantt] [-node N] [-events log.jsonl] [-chrome out.json] trace.json")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadJSON(f)
	if err != nil {
		fatal(err)
	}

	var events []obs.Event
	if *eventsIn != "" {
		ef, err := os.Open(*eventsIn)
		if err != nil {
			fatal(err)
		}
		events, err = obs.ReadJSONL(ef)
		ef.Close()
		if err != nil {
			fatal(err)
		}
	}

	fmt.Printf("scheduler: %s\n", tr.Scheduler)
	start, end := tr.Span()
	fmt.Printf("span: %.1fs .. %.1fs (%d jobs, %d tasks)\n\n", start, end, len(tr.Jobs), len(tr.Tasks))

	printJobs(tr)
	printLocality(tr)
	printNodes(tr)

	if len(events) > 0 {
		printEvents(events)
	}
	if *nodeFlag >= 0 {
		printNodeTimeline(tr, *nodeFlag)
	}
	if *gantt {
		printGantt(tr)
	}
	if *chromeOut != "" {
		cf, err := os.Create(*chromeOut)
		if err != nil {
			fatal(err)
		}
		if err := tr.WriteChromeWith(cf, events); err != nil {
			fatal(err)
		}
		if err := cf.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "chrome trace written to %s (%d tasks, %d events)\n",
			*chromeOut, len(tr.Tasks), len(events))
	}
}

// printEvents replays the event log through the streaming summary sink,
// reproducing exactly what a live -obs-summary run would have printed.
func printEvents(events []obs.Event) {
	sum := obs.NewSummary()
	for _, e := range events {
		sum.Observe(e)
	}
	fmt.Printf("event log: %d events\n", len(events))
	fmt.Println(sum.String())
}

func printJobs(tr *trace.Trace) {
	t := metrics.NewTable("Job", "Submit", "Finish", "Maps", "Reduces", "Map phase", "Reduce tail")
	for _, j := range tr.Jobs {
		var mapEnd, redEnd float64
		for _, task := range tr.Tasks {
			if task.Job != j.Name {
				continue
			}
			switch task.Kind {
			case "map":
				if task.Finish > mapEnd {
					mapEnd = task.Finish
				}
			case "reduce":
				if task.Finish > redEnd {
					redEnd = task.Finish
				}
			}
		}
		t.AddRow(j.Name, metrics.Seconds(j.Submit), metrics.Seconds(j.Finish),
			j.Maps, j.Reduces,
			metrics.Seconds(mapEnd-j.Submit), metrics.Seconds(redEnd-mapEnd))
	}
	fmt.Println(t.String())
}

func printLocality(tr *trace.Trace) {
	counts := map[string]map[string]int{"map": {}, "reduce": {}}
	for _, task := range tr.Tasks {
		counts[task.Kind][task.Locality]++
	}
	t := metrics.NewTable("Kind", "local node", "local rack", "remote")
	for _, kind := range []string{"map", "reduce"} {
		c := counts[kind]
		t.AddRow(kind, c["local node"], c["local rack"], c["remote"])
	}
	fmt.Println(t.String())
}

func printNodes(tr *trace.Trace) {
	type nodeStat struct {
		tasks int
		busy  float64
	}
	stats := map[int]*nodeStat{}
	for _, task := range tr.Tasks {
		st, ok := stats[task.Node]
		if !ok {
			st = &nodeStat{}
			stats[task.Node] = st
		}
		st.tasks++
		st.busy += task.Finish - task.Launch
	}
	ids := make([]int, 0, len(stats))
	for id := range stats {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	// Top 10 busiest nodes.
	sort.Slice(ids, func(a, b int) bool { return stats[ids[a]].busy > stats[ids[b]].busy })
	if len(ids) > 10 {
		ids = ids[:10]
	}
	t := metrics.NewTable("Node", "Tasks", "Busy task-seconds")
	for _, id := range ids {
		t.AddRow(id, stats[id].tasks, fmt.Sprintf("%.1f", stats[id].busy))
	}
	fmt.Println("busiest nodes:")
	fmt.Println(t.String())
}

func printNodeTimeline(tr *trace.Trace, node int) {
	fmt.Printf("node %d timeline:\n", node)
	t := metrics.NewTable("Launch", "Finish", "Kind", "Job", "Index", "Locality")
	for _, task := range tr.NodeTimeline(node) {
		t.AddRow(metrics.Seconds(task.Launch), metrics.Seconds(task.Finish),
			task.Kind, task.Job, task.Index, task.Locality)
	}
	fmt.Println(t.String())
}

// printGantt renders cluster concurrency over time: one row per time
// bucket with map/reduce task counts as bars.
func printGantt(tr *trace.Trace) {
	start, end := tr.Span()
	if end <= start {
		return
	}
	const rows = 40
	step := (end - start) / rows
	fmt.Printf("cluster activity (each row %.1fs; #=10 maps, +=10 reduces):\n", step)
	for i := 0; i < rows; i++ {
		t0 := start + float64(float64(i)*step)
		t1 := t0 + step
		maps, reds := 0, 0
		for _, task := range tr.Tasks {
			if task.Launch < t1 && task.Finish > t0 {
				if task.Kind == "map" {
					maps++
				} else {
					reds++
				}
			}
		}
		fmt.Printf("%8.1fs |%s%s\n", t0,
			strings.Repeat("#", (maps+9)/10), strings.Repeat("+", (reds+9)/10))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mrtrace:", err)
	os.Exit(1)
}
