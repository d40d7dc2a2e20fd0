package trace

import (
	"bytes"
	"strings"
	"testing"

	"mapsched/internal/job"
)

func sampleJobs() []*job.Job {
	j := job.Assemble(1, job.Spec{Name: "wc", InputBytes: 1e9, Submit: 1}, []*job.MapTask{
		{Index: 0, Size: 5e8, State: job.TaskDone, Node: 3,
			Locality: job.LocalNode, Launch: 2, Finish: 10},
		{Index: 1, Size: 5e8, State: job.TaskDone, Node: 1,
			Locality: job.LocalRack, Launch: 1, Finish: 12},
		{Index: 2, Size: 5e8, State: job.TaskPending, Node: -1},
	}, []*job.ReduceTask{
		{Index: 0, State: job.TaskDone, Node: 2,
			Locality: job.LocalRack, Launch: 5, Finish: 100, ShuffledBytes: 2e8},
	})
	j.Finished = 100
	return []*job.Job{j}
}

func TestFromJobsShape(t *testing.T) {
	tr := FromJobs("test-sched", sampleJobs())
	if tr.Scheduler != "test-sched" {
		t.Fatalf("scheduler = %q", tr.Scheduler)
	}
	if len(tr.Jobs) != 1 || tr.Jobs[0].Name != "wc" || tr.Jobs[0].Maps != 3 {
		t.Fatalf("jobs = %+v", tr.Jobs)
	}
	// The pending map is omitted: 2 maps + 1 reduce.
	if len(tr.Tasks) != 3 {
		t.Fatalf("%d tasks, want 3", len(tr.Tasks))
	}
	// Sorted by launch time.
	for i := 1; i < len(tr.Tasks); i++ {
		if tr.Tasks[i].Launch < tr.Tasks[i-1].Launch {
			t.Fatal("tasks not sorted by launch")
		}
	}
	if tr.Tasks[0].Kind != "map" || tr.Tasks[0].Index != 1 {
		t.Fatalf("first task = %+v", tr.Tasks[0])
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := FromJobs("s", sampleJobs())
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"kind": "map"`) {
		t.Fatalf("JSON missing fields:\n%s", buf.String())
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Scheduler != tr.Scheduler || len(back.Tasks) != len(tr.Tasks) {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Tasks[0] != tr.Tasks[0] {
		t.Fatalf("task mismatch: %+v vs %+v", back.Tasks[0], tr.Tasks[0])
	}
}

func TestReadJSONError(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{broken")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestSpanAndNodeTimeline(t *testing.T) {
	tr := FromJobs("s", sampleJobs())
	start, end := tr.Span()
	if start != 1 || end != 100 {
		t.Fatalf("span = [%v, %v], want [1, 100]", start, end)
	}
	node3 := tr.NodeTimeline(3)
	if len(node3) != 1 || node3[0].Index != 0 {
		t.Fatalf("node 3 timeline = %+v", node3)
	}
	if tl := tr.NodeTimeline(42); len(tl) != 0 {
		t.Fatalf("phantom node timeline: %+v", tl)
	}
	var empty Trace
	if s, e := empty.Span(); s != 0 || e != 0 {
		t.Fatalf("empty span = [%v, %v]", s, e)
	}
}
