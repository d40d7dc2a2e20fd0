package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mapsched/internal/obs"
)

func TestWriteChrome(t *testing.T) {
	tr := FromJobs("prob", sampleJobs())
	var buf bytes.Buffer
	if err := tr.WriteChromeWith(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("not a JSON array: %v", err)
	}
	if len(evs) != len(tr.Tasks) {
		t.Fatalf("%d events, want %d tasks", len(evs), len(tr.Tasks))
	}
	first := evs[0]
	if first["ph"] != "X" || first["cat"] != "map" {
		t.Fatalf("first event %v", first)
	}
	// Seconds become microseconds: the earliest sample map launches at t=1s.
	if first["ts"].(float64) != 1e6 {
		t.Fatalf("ts %v", first["ts"])
	}
	if !strings.Contains(buf.String(), `"locality":"local node"`) {
		t.Fatal("args missing locality")
	}
	// Determinism: a second render is byte-identical.
	var again bytes.Buffer
	if err := tr.WriteChromeWith(&again, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("chrome export not deterministic")
	}
}

func TestWriteChromeWithEvents(t *testing.T) {
	tr := FromJobs("prob", sampleJobs())
	events := []obs.Event{
		{T: 2, Type: obs.TaskAssign, Node: 3, Job: "wc",
			Task:     &obs.TaskRef{Kind: "map", Index: 0},
			Decision: &obs.Decision{C: 0.8, CAvg: 1.2, P: 0.77, PMin: 0.4, Draw: "accept"}},
		{T: 2.5, Type: obs.FlowStart, Node: 3,
			Flow: &obs.FlowInfo{ID: 1, Src: 0, Dst: 3, Bytes: 5e8, Rate: 1e8}},
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeWith(&buf, events); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("not a JSON array: %v", err)
	}
	if len(evs) != len(tr.Tasks)+len(events) {
		t.Fatalf("%d events, want %d", len(evs), len(tr.Tasks)+len(events))
	}
	out := buf.String()
	for _, want := range []string{`"name":"task_assign"`, `"ph":"i"`, `"c_avg":1.2`, `"draw":"accept"`, `"name":"flow_start"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome export missing %s", want)
		}
	}
}

func TestWriteChromeEmpty(t *testing.T) {
	tr := &Trace{Scheduler: "x"}
	var buf bytes.Buffer
	if err := tr.WriteChromeWith(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var evs []any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil || len(evs) != 0 {
		t.Fatalf("empty trace: %v %v", evs, err)
	}
}
