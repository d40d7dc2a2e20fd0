package obs

import (
	"bytes"
	"strings"
	"testing"
)

// Multi fans one observer call out to several sinks.
func Multi(sinks ...Observer) Observer { return multi(sinks) }

type multi []Observer

func (m multi) Observe(e Event) {
	for _, o := range m {
		if o != nil {
			o.Observe(e)
		}
	}
}

func TestNilStreamIsDisabled(t *testing.T) {
	var s *Stream
	if s.Enabled() {
		t.Fatal("nil stream enabled")
	}
	s.Attach(Func(func(Event) { t.Fatal("observer on nil stream") }))
	s.Emit(Event{Type: TaskAssign}) // must not panic
}

func TestStreamAttachEmit(t *testing.T) {
	s := NewStream()
	if s.Enabled() {
		t.Fatal("empty stream enabled")
	}
	s.Attach(nil) // ignored
	if s.Enabled() {
		t.Fatal("nil observer counted")
	}
	var got []Type
	s.Attach(Func(func(e Event) { got = append(got, e.Type) }))
	if !s.Enabled() {
		t.Fatal("stream with observer disabled")
	}
	s.Emit(Event{Type: TaskOffer})
	s.Emit(Event{Type: TaskAssign})
	if len(got) != 2 || got[0] != TaskOffer || got[1] != TaskAssign {
		t.Fatalf("got %v", got)
	}
}

func TestMultiFanOut(t *testing.T) {
	a, b := 0, 0
	m := Multi(Func(func(Event) { a++ }), nil, Func(func(Event) { b++ }))
	m.Observe(Event{})
	m.Observe(Event{})
	if a != 2 || b != 2 {
		t.Fatalf("a=%d b=%d", a, b)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	events := []Event{
		{T: 0, Type: JobSubmit, Node: -1, Job: "wc"},
		{T: 1.5, Type: TaskOffer, Node: 3, Job: "wc",
			Task:     &TaskRef{Kind: "map", Index: 0},
			Decision: &Decision{C: 0.8, CAvg: 1.2, P: 0.77, PMin: 0.4}},
		{T: 1.5, Type: TaskAssign, Node: 3, Job: "wc",
			Task: &TaskRef{Kind: "map", Index: 0}, Locality: "local rack",
			Decision: &Decision{C: 0.8, CAvg: 1.2, P: 0.77, PMin: 0.4, Draw: "accept"}},
		{T: 2, Type: FlowStart, Node: 3,
			Flow: &FlowInfo{ID: 7, Src: 1, Dst: 3, Bytes: 1e8, Rate: 125e6, Links: []int{2, 6}}},
		{T: 9, Type: JobFinish, Node: -1, Job: "wc", Dur: 9},
	}
	for _, e := range events {
		sink.Observe(e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != len(events) {
		t.Fatalf("%d lines, want %d", n, len(events))
	}
	back, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("%d events back, want %d", len(back), len(events))
	}
	if *back[1].Decision != *events[1].Decision {
		t.Fatalf("decision round trip: %+v", back[1].Decision)
	}
	if back[3].Flow.ID != 7 || len(back[3].Flow.Links) != 2 {
		t.Fatalf("flow round trip: %+v", back[3].Flow)
	}
	// Node 0 and index 0 must survive encoding (no omitempty on them).
	var zero bytes.Buffer
	z := NewJSONL(&zero)
	z.Observe(Event{Type: TaskStart, Node: 0, Job: "j", Task: &TaskRef{Kind: "map", Index: 0}})
	if err := z.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"node":0`, `"index":0`} {
		if !strings.Contains(zero.String(), want) {
			t.Fatalf("zero values dropped: %s", zero.String())
		}
	}
}

func TestReadJSONLBadLine(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"t\":0}\nnot json\n")); err == nil {
		t.Fatal("bad line accepted")
	}
	events, err := ReadJSONL(strings.NewReader("\n  \n"))
	if err != nil || len(events) != 0 {
		t.Fatalf("blank log: %v, %v", events, err)
	}
}

func TestSummaryCounts(t *testing.T) {
	s := NewSummary()
	feed := []Event{
		{Type: JobSubmit},
		{Type: TaskOffer, Task: &TaskRef{Kind: "map"}, Decision: &Decision{P: 0.9}},
		{Type: TaskAssign, Task: &TaskRef{Kind: "map"}, Locality: "local node"},
		{Type: TaskStart, Task: &TaskRef{Kind: "map"}, Locality: "local node", Wait: 2},
		{Type: TaskOffer, Task: &TaskRef{Kind: "map"}, Decision: &Decision{P: 0.3}},
		{Type: TaskSkip, Task: &TaskRef{Kind: "map"}, Reason: "below_pmin"},
		{Type: TaskAssign, Task: &TaskRef{Kind: "map"}, Locality: "local rack"},
		{Type: TaskStart, Task: &TaskRef{Kind: "map"}, Locality: "local rack", Wait: 4},
		{Type: TaskFinish, Task: &TaskRef{Kind: "map"}, Dur: 10},
		{Type: FlowStart, Flow: &FlowInfo{Src: 1, Dst: 2, Bytes: 100, Links: []int{0}}},
		{Type: FlowStart, Flow: &FlowInfo{Src: 2, Dst: 2, Bytes: 50}},
		{Type: FlowFinish, Flow: &FlowInfo{}},
		{Type: JobFinish, Dur: 30},
	}
	for _, e := range feed {
		s.Observe(e)
	}
	if got := s.SkipRate("map"); got != 1.0/3 {
		t.Fatalf("skip rate %v", got)
	}
	if got := s.LocalityHitRate("map"); got != 0.5 {
		t.Fatalf("locality hit rate %v", got)
	}
	r := s.Registry()
	if r.Counter("skips_map_below_pmin").Value() != 1 {
		t.Fatal("reason counter missing")
	}
	if r.Counter("flow_bytes_remote").Value() != 100 || r.Counter("flow_bytes_local").Value() != 50 {
		t.Fatalf("flow byte split: remote=%v local=%v",
			r.Counter("flow_bytes_remote").Value(), r.Counter("flow_bytes_local").Value())
	}
	if r.Counter("link_000_bytes").Value() != 100 {
		t.Fatal("per-link volume missing")
	}
	if h := r.Histogram("queue_wait_map_s"); h.N() != 2 || h.Mean() != 3 {
		t.Fatalf("queue wait histogram: n=%d mean=%v", h.N(), h.Mean())
	}
	if s.SkipRate("reduce") != 0 || s.LocalityHitRate("reduce") != 0 {
		t.Fatal("unobserved kind should report zero rates")
	}
	out := s.String()
	for _, want := range []string{"locality_hit_map", "skip_rate_map", "assigns_map", "queue_wait_map_s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary output missing %s:\n%s", want, out)
		}
	}
}
