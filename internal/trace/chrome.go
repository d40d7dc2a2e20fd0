package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"mapsched/internal/obs"
)

// chromeEvent is one record of the Chrome trace_event format (the
// "JSON Array Format" consumed by chrome://tracing and Perfetto).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// tid lanes within a node's process group. Tasks of the two kinds get
// separate lanes so overlapping map and reduce work stays readable.
const (
	laneMap = iota
	laneReduce
	laneEvents
)

// WriteChromeWith renders the trace as Chrome trace_event JSON: one
// process per node, one complete-event per executed task (map and reduce
// on separate lanes), with job, locality and bytes in args. Simulated
// seconds become trace microseconds 1:1 so second-scale simulations stay
// zoomable. Load the output in chrome://tracing or ui.perfetto.dev. A
// non-nil observability event log is rendered as instant markers on each
// node's event lane: scheduler decisions carry their C / C_avg / P
// breakdown in args, so clicking an assignment in the viewer shows why it
// happened.
func (t *Trace) WriteChromeWith(w io.Writer, events []obs.Event) error {
	evs := make([]chromeEvent, 0, len(t.Tasks)+len(events))
	for _, task := range t.Tasks {
		lane := laneMap
		if task.Kind == "reduce" {
			lane = laneReduce
		}
		evs = append(evs, chromeEvent{
			Name: fmt.Sprintf("%s/%s/%d", task.Job, task.Kind, task.Index),
			Cat:  task.Kind,
			Ph:   "X",
			Ts:   task.Launch * 1e6,
			Dur:  (task.Finish - task.Launch) * 1e6,
			Pid:  task.Node,
			Tid:  lane,
			Args: map[string]any{
				"job":      task.Job,
				"locality": task.Locality,
				"bytes":    task.Bytes,
			},
		})
	}
	for _, e := range events {
		ce := chromeEvent{
			Name: string(e.Type),
			Cat:  "obs",
			Ph:   "i",
			Ts:   e.T * 1e6,
			Pid:  e.Node,
			Tid:  laneEvents,
		}
		args := map[string]any{}
		if e.Job != "" {
			args["job"] = e.Job
		}
		if e.Task != nil {
			args["task"] = fmt.Sprintf("%s/%d", e.Task.Kind, e.Task.Index)
		}
		if e.Locality != "" {
			args["locality"] = e.Locality
		}
		if e.Reason != "" {
			args["reason"] = e.Reason
		}
		if e.Decision != nil {
			args["c"] = e.Decision.C
			args["c_avg"] = e.Decision.CAvg
			args["p"] = e.Decision.P
			args["p_min"] = e.Decision.PMin
			if e.Decision.Draw != "" {
				args["draw"] = e.Decision.Draw
			}
		}
		if e.Flow != nil {
			args["flow"] = e.Flow.ID
			args["bytes"] = e.Flow.Bytes
			args["rate"] = e.Flow.Rate
		}
		if len(args) > 0 {
			ce.Args = args
		}
		evs = append(evs, ce)
	}
	return writeChromeJSON(w, evs)
}

// writeChromeJSON emits the event array one record per line, keeping the
// output diffable and byte-deterministic (maps inside args are marshaled
// by encoding/json in sorted key order).
func writeChromeJSON(w io.Writer, evs []chromeEvent) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return fmt.Errorf("trace: chrome: %w", err)
	}
	for i, e := range evs {
		b, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("trace: chrome: %w", err)
		}
		sep := ",\n"
		if i == len(evs)-1 {
			sep = "\n"
		}
		if _, err := w.Write(append(b, sep...)); err != nil {
			return fmt.Errorf("trace: chrome: %w", err)
		}
	}
	if _, err := io.WriteString(w, "]\n"); err != nil {
		return fmt.Errorf("trace: chrome: %w", err)
	}
	return nil
}
