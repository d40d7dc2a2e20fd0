package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"strconv"
	"testing"
)

// checkMatchesMarshal requires appendEvent to write what json.Marshal
// writes for e, or to fail with the same error text, and to leave the
// bytes already in its buffer alone.
func checkMatchesMarshal(t *testing.T, e Event) {
	t.Helper()
	want, wantErr := json.Marshal(e)
	got, gotErr := appendEvent([]byte("x"), e)
	if wantErr != nil || gotErr != nil {
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%+v: error %v, json.Marshal error %v", e, gotErr, wantErr)
		}
		var uv *json.UnsupportedValueError
		if !errors.As(gotErr, &uv) {
			t.Fatalf("error %T, want *json.UnsupportedValueError", gotErr)
		}
		return
	}
	if got[0] != 'x' || !bytes.Equal(got[1:], want) {
		t.Fatalf("appendEvent wrote\n  %s\njson.Marshal wrote\n  x%s", got, want)
	}
}

// fillAll sets every exported field under v to a distinct non-zero value,
// so json.Marshal writes all of them.
func fillAll(t *testing.T, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillAll(t, v.Field(i), n)
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillAll(t, v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fillAll(t, v.Index(0), n)
		fillAll(t, v.Index(1), n)
	case reflect.String:
		v.SetString("s" + strconv.Itoa(*n))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("fillAll cannot fill a %s field", v.Type())
	}
}

func TestJSONLMatchesMarshal(t *testing.T) {
	base := func() Event {
		return Event{T: 3.5, Type: TaskAssign, Node: 4, Job: "wc-1",
			Task:     &TaskRef{Kind: "map", Index: 2},
			Decision: &Decision{C: 0.8, CAvg: 1.2, P: 0.77, PMin: 0.4, Draw: "accept"},
			Flow:     &FlowInfo{ID: 7, Src: 1, Dst: 4, Bytes: 1e8, Rate: 125e6, Links: []int{2, 6}}}
	}

	var filled Event
	n := 0
	fillAll(t, reflect.ValueOf(&filled).Elem(), &n)
	checkMatchesMarshal(t, filled)

	checkMatchesMarshal(t, Event{})
	checkMatchesMarshal(t, Event{Node: -1, Task: &TaskRef{}, Decision: &Decision{}, Flow: &FlowInfo{}})
	checkMatchesMarshal(t, base())

	floats := map[string]func(*Event, float64){
		"t":      func(e *Event, f float64) { e.T = f },
		"wait":   func(e *Event, f float64) { e.Wait = f },
		"dur":    func(e *Event, f float64) { e.Dur = f },
		"factor": func(e *Event, f float64) { e.Factor = f },
		"c":      func(e *Event, f float64) { e.Decision.C = f },
		"c_avg":  func(e *Event, f float64) { e.Decision.CAvg = f },
		"p":      func(e *Event, f float64) { e.Decision.P = f },
		"p_min":  func(e *Event, f float64) { e.Decision.PMin = f },
		"bytes":  func(e *Event, f float64) { e.Flow.Bytes = f },
		"rate":   func(e *Event, f float64) { e.Flow.Rate = f },
	}
	values := []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 9.99e-7, 1e-6, 1.5e-10,
		0.1, 123456.789, 1e20, 1e21, -1e21, 1.7e22, 5e-324, 2.2250738585072e-308,
		math.MaxFloat64, -math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	for name, set := range floats {
		for _, f := range values {
			e := base()
			set(&e, f)
			t.Run(name+"="+strconv.FormatFloat(f, 'g', -1, 64), func(t *testing.T) { checkMatchesMarshal(t, e) })
		}
	}
	// Two bad floats: the first in field order names the error.
	e := base()
	e.T, e.Flow.Rate = math.Inf(-1), math.NaN()
	checkMatchesMarshal(t, e)

	strs := map[string]func(*Event, string){
		"type":     func(e *Event, s string) { e.Type = Type(s) },
		"job":      func(e *Event, s string) { e.Job = s },
		"kind":     func(e *Event, s string) { e.Task.Kind = s },
		"locality": func(e *Event, s string) { e.Locality = s },
		"reason":   func(e *Event, s string) { e.Reason = s },
		"draw":     func(e *Event, s string) { e.Decision.Draw = s },
	}
	texts := []string{"", "local rack", "a<b", "b>a", "R&D", `say "hi"`, `C:\dir`, "\x00\x01\t\n\r\x1f",
		"\x7f", "line\u2028para\u2029", "h\u00e9llo \u4e16", "bad\xffutf8\xc3", "\xed\xa0\x80"}
	for name, set := range strs {
		for _, s := range texts {
			e := base()
			set(&e, s)
			t.Run(name+"="+strconv.Quote(s), func(t *testing.T) { checkMatchesMarshal(t, e) })
		}
	}

	for _, links := range [][]int{nil, {}, {0}, {-1, 5, math.MaxInt}} {
		for _, persistent := range []bool{false, true} {
			e := base()
			e.Flow.Links, e.Flow.Persistent = links, persistent
			e.Flow.ID, e.Flow.Src, e.Flow.Dst = math.MinInt64, -1, math.MaxInt
			checkMatchesMarshal(t, e)
		}
	}
}

func FuzzJSONLMatchesMarshal(f *testing.F) {
	f.Add(3.5, 0.0, 2.0, 0.0, 0.8, 1.2, 0.77, 0.4, 1e8, 125e6, 4, 2, 1, 4, int64(7),
		"task_assign", "wc", "map", "local rack", "", "accept", []byte{2, 6}, uint8(0xff))
	f.Add(math.NaN(), 1e-7, 1e21, -0.0, 5e-324, math.Inf(1), 0.0, 0.0, 0.0, 0.0, -1, 0, -1, 0, int64(-1),
		"flow_finish", "a<b>&", "\u2028", "\xff", "\"\\", "\x00", []byte{}, uint8(0x15))
	f.Fuzz(func(t *testing.T, tm, wait, dur, factor, c, cavg, p, pmin, bytes, rate float64,
		node, index, src, dst int, id int64, typ, job, kind, locality, reason, draw string,
		links []byte, parts uint8) {
		e := Event{T: tm, Type: Type(typ), Node: node, Job: job, Locality: locality,
			Reason: reason, Wait: wait, Dur: dur, Factor: factor}
		if parts&1 != 0 {
			e.Task = &TaskRef{Kind: kind, Index: index}
		}
		if parts&2 != 0 {
			e.Decision = &Decision{C: c, CAvg: cavg, P: p, PMin: pmin, Draw: draw}
		}
		if parts&4 != 0 {
			e.Flow = &FlowInfo{ID: id, Src: src, Dst: dst, Bytes: bytes, Rate: rate,
				Persistent: parts&8 != 0}
			if parts&16 != 0 {
				e.Flow.Links = []int{}
			}
			for _, l := range links {
				e.Flow.Links = append(e.Flow.Links, int(int8(l)))
			}
		}
		checkMatchesMarshal(t, e)
	})
}

// TestJSONLObserveAllocs holds the sink to zero allocations per event,
// including the writes to the underlying writer.
func TestJSONLObserveAllocs(t *testing.T) {
	sink := NewJSONL(io.Discard)
	finish := Event{T: 12.25, Type: FlowFinish, Node: 3,
		Flow: &FlowInfo{ID: 9, Src: 1, Dst: 3, Bytes: 1e8, Rate: 31250000, Links: []int{2, 7}}}
	assign := Event{T: 12.25, Type: TaskAssign, Node: 3, Job: "wordcount-4",
		Task: &TaskRef{Kind: "map", Index: 17}, Locality: "local rack",
		Decision: &Decision{C: 0.8, CAvg: 1.2, P: 0.7768698398515702, PMin: 0.4, Draw: "accept"}}
	for _, e := range []Event{finish, assign} {
		if a := testing.AllocsPerRun(1000, func() { sink.Observe(e) }); a != 0 {
			t.Errorf("%s: %.1f allocs per Observe", e.Type, a)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
}

// line is the log line json.Marshal gives e.
func line(t *testing.T, e Event) string {
	t.Helper()
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// TestJSONLErrorLatch checks that the first encoding error keeps the whole
// lines before it, drops the failing event and every later one, and is
// what Flush returns.
func TestJSONLErrorLatch(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	first := Event{T: 1, Type: JobSubmit, Node: -1, Job: "wc"}
	second := Event{T: 2, Type: TaskOffer, Node: 3, Job: "wc", Task: &TaskRef{Kind: "map"},
		Decision: &Decision{C: 0.5, CAvg: 1, P: 0.86, PMin: 0.4}}
	bad := second
	bad.Decision = &Decision{C: 0.5, CAvg: 1, P: math.NaN(), PMin: 0.4}
	for _, e := range []Event{first, second, bad, first, second} {
		sink.Observe(e)
	}
	err := sink.Flush()
	var uv *json.UnsupportedValueError
	if !errors.As(err, &uv) || uv.Str != "NaN" {
		t.Fatalf("Flush: %v, want a *json.UnsupportedValueError for NaN", err)
	}
	if want := line(t, first) + line(t, second); buf.String() != want {
		t.Fatalf("log:\n%s\nwant:\n%s", buf.String(), want)
	}
	sink.Observe(first)
	if again := sink.Flush(); again != err || buf.Len() != len(line(t, first)+line(t, second)) {
		t.Fatalf("second Flush: %v and %d bytes; the latched error must stand", again, buf.Len())
	}
}

// failWriter fails every write after counting it; short reports a short
// write with no error instead.
type failWriter struct {
	calls int
	short bool
}

var errDiskFull = errors.New("disk full")

func (w *failWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.short {
		return len(p) / 2, nil
	}
	return 0, errDiskFull
}

// TestJSONLWriteErrorLatch checks that a failing writer's error is
// latched, whether it surfaces at Flush or at a write from Observe, and
// that later events never reach the writer.
func TestJSONLWriteErrorLatch(t *testing.T) {
	e := Event{T: 2, Type: FlowFinish, Node: 3,
		Flow: &FlowInfo{ID: 9, Src: 1, Dst: 3, Bytes: 1e8, Rate: 31250000, Links: []int{2, 7}}}
	for _, tc := range []struct {
		name  string
		short bool
		want  error
		n     int // events observed before the first Flush
	}{
		{"flush", false, errDiskFull, 3},
		{"observe", false, errDiskFull, 2 * jsonlFlushAt / len(line(t, e))},
		{"short", true, io.ErrShortWrite, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := &failWriter{short: tc.short}
			sink := NewJSONL(w)
			for i := 0; i < tc.n; i++ {
				sink.Observe(e)
			}
			if err := sink.Flush(); !errors.Is(err, tc.want) {
				t.Fatalf("Flush: %v, want %v", err, tc.want)
			}
			sink.Observe(e)
			if err := sink.Flush(); !errors.Is(err, tc.want) || w.calls != 1 {
				t.Fatalf("after the error: Flush %v, %d writes; want the latched error and 1 write", err, w.calls)
			}
		})
	}
}
