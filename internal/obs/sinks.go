package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"mapsched/internal/metrics"
)

// JSONL writes one JSON object per event to a writer. Events are encoded
// by appendEvent, a hand-written encoder whose output is pinned byte for
// byte to json.Marshal's (the Event struct's field order and omitempty
// rules), so a deterministic simulation produces a byte-identical log.
// Lines collect in one reused buffer, written to w once it passes 64 KiB
// and at Flush. The first encoding or write error is latched and
// returned by Flush: an event that fails to encode writes nothing, the
// whole lines before it are still written, and later events are dropped.
type JSONL struct {
	w   io.Writer
	buf []byte
	err error
}

// jsonlFlushAt is the buffered size at which Observe writes to w.
const jsonlFlushAt = 64 << 10

// NewJSONL returns a JSONL sink over w.
func NewJSONL(w io.Writer) *JSONL {
	// Room for a full buffer plus one long line, so the buffer never grows.
	return &JSONL{w: w, buf: make([]byte, 0, jsonlFlushAt+4<<10)}
}

// Observe implements Observer.
func (j *JSONL) Observe(e Event) {
	if j.err != nil {
		return
	}
	// On an error the partial line lies past len(j.buf), so it is dropped.
	b, err := appendEvent(j.buf, e)
	if err != nil {
		j.err = fmt.Errorf("obs: encode event: %w", err)
		return
	}
	j.buf = append(b, '\n')
	if len(j.buf) >= jsonlFlushAt {
		j.write()
	}
}

// Flush writes the buffered lines and returns the first error encountered.
func (j *JSONL) Flush() error {
	if len(j.buf) > 0 {
		j.write()
	}
	return j.err
}

// write hands the buffered lines to w and empties the buffer.
func (j *JSONL) write() {
	n, err := j.w.Write(j.buf)
	if err == nil && n < len(j.buf) {
		err = io.ErrShortWrite
	}
	j.buf = j.buf[:0]
	if err != nil && j.err == nil {
		j.err = fmt.Errorf("obs: write events: %w", err)
	}
}

// ReadJSONL parses an event log written by the JSONL sink.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(text), &e); err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: read events: %w", err)
	}
	return out, nil
}

// Summary is a streaming-metrics sink: it folds the event stream into a
// metrics.Registry of counters and histograms — locality hit rates,
// decision skip rates, queue waits, task durations, per-link and
// per-node-pair network volume — without retaining the events.
type Summary struct {
	reg *metrics.Registry
}

// NewSummary returns an empty summary sink.
func NewSummary() *Summary {
	return &Summary{reg: metrics.NewRegistry()}
}

// Registry exposes the underlying metrics for programmatic access.
func (s *Summary) Registry() *metrics.Registry { return s.reg }

// Observe implements Observer.
func (s *Summary) Observe(e Event) {
	r := s.reg
	kind := ""
	if e.Task != nil {
		kind = e.Task.Kind
	}
	switch e.Type {
	case JobSubmit:
		r.Counter("jobs_submitted").Inc()
	case JobFinish:
		r.Counter("jobs_finished").Inc()
		r.Histogram("job_completion_s", metrics.DefaultTimeBounds...).Observe(e.Dur)
	case TaskOffer:
		r.Counter("offers_" + kind).Inc()
		if e.Decision != nil {
			r.Histogram("offer_p_"+kind, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99).Observe(e.Decision.P)
		}
	case TaskAssign:
		r.Counter("assigns_" + kind).Inc()
		if e.Locality != "" {
			r.Counter("assigns_" + kind + "_" + localitySlug(e.Locality)).Inc()
		}
		if e.Reason != "" {
			r.Counter("assigns_" + kind + "_" + e.Reason).Inc()
		}
	case TaskSkip:
		r.Counter("skips_" + kind).Inc()
		if e.Reason != "" {
			r.Counter("skips_" + kind + "_" + e.Reason).Inc()
		}
	case TaskStart:
		r.Counter("starts_" + kind).Inc()
		if e.Locality != "" {
			r.Counter("starts_" + kind + "_" + localitySlug(e.Locality)).Inc()
		}
		r.Histogram("queue_wait_"+kind+"_s", metrics.DefaultTimeBounds...).Observe(e.Wait)
	case TaskFinish:
		r.Histogram("task_dur_"+kind+"_s", metrics.DefaultTimeBounds...).Observe(e.Dur)
	case NodeFail:
		r.Counter("node_failures").Inc()
	case TaskRelaunch:
		r.Counter("relaunches_" + kind).Inc()
	case FlowStart:
		if e.Flow == nil {
			return
		}
		r.Counter("flows_started").Inc()
		r.Counter("flow_bytes").Add(e.Flow.Bytes)
		if e.Flow.Src >= 0 && e.Flow.Src == e.Flow.Dst {
			r.Counter("flow_bytes_local").Add(e.Flow.Bytes)
		} else {
			r.Counter("flow_bytes_remote").Add(e.Flow.Bytes)
		}
		for _, l := range e.Flow.Links {
			r.Counter(fmt.Sprintf("link_%03d_bytes", l)).Add(e.Flow.Bytes)
		}
	case FlowFinish:
		r.Counter("flows_finished").Inc()
	}
}

// localitySlug maps job.Locality strings ("local node") to counter-name
// fragments ("local_node").
func localitySlug(s string) string {
	return strings.ReplaceAll(s, " ", "_")
}

// SkipRate returns skips/(assigns+skips) for the task kind ("map" or
// "reduce"); 0 when no decisions were observed.
func (s *Summary) SkipRate(kind string) float64 {
	a := s.reg.Counter("assigns_" + kind).Value()
	k := s.reg.Counter("skips_" + kind).Value()
	if a+k == 0 {
		return 0
	}
	return k / (a + k)
}

// LocalityHitRate returns the node-local share of launched tasks of the
// kind; 0 when none were observed. It counts task_start events (whose
// locality is the realized placement for both maps and reduces) rather
// than assignments, where reduce locality is not yet known.
func (s *Summary) LocalityHitRate(kind string) float64 {
	n := s.reg.Counter("starts_" + kind).Value()
	if n == 0 {
		return 0
	}
	return s.reg.Counter("starts_"+kind+"_local_node").Value() / n
}

// String renders the collected metrics plus the derived rates.
func (s *Summary) String() string {
	var b strings.Builder
	t := metrics.NewTable("Rate", "Value")
	for _, kind := range []string{"map", "reduce"} {
		t.AddRow("locality_hit_"+kind, fmt.Sprintf("%.3f", s.LocalityHitRate(kind)))
		t.AddRow("skip_rate_"+kind, fmt.Sprintf("%.3f", s.SkipRate(kind)))
	}
	b.WriteString(t.String())
	b.WriteByte('\n')
	b.WriteString(s.reg.Render())
	return b.String()
}
