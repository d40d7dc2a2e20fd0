//lint:allow nodeterminism the traced run times layer calls with the wall clock; no reading feeds a simulation
package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"mapsched/internal/job"
	"mapsched/internal/obs"
	"mapsched/internal/sched"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
)

// tracer collects the per-layer figures of one traced repetition: the
// scheduler decorator's call timings and the counting observer's event
// counts and sink time. Simulations run one at a time, so it needs no
// locking.
type tracer struct {
	mapUS, reduceUS             []float64
	mapAssigned, reduceAssigned int
	schedTime                   time.Duration // inside AssignMap/AssignReduce, observer time included
	inSched                     bool
	sinkTime                    time.Duration // inside the counting observer
	sinkInSched                 time.Duration // the part of sinkTime spent within a scheduler call
	events                      map[obs.Type]int
}

func newTracer() *tracer { return &tracer{events: make(map[obs.Type]int)} }

// wrap decorates a scheduler builder with the timing decorator.
func (t *tracer) wrap(b sched.Builder) sched.Builder {
	return func(env sched.Env) sched.Scheduler {
		return &timedScheduler{inner: b(env), t: t}
	}
}

// schedSeconds is the scheduler layer's own time: the decorator's
// inclusive time less the observer calls nested inside it, so that
// scheduler, observer and the rest of the engine partition the run.
func (t *tracer) schedSeconds() float64 { return (t.schedTime - t.sinkInSched).Seconds() }

// timedScheduler times every AssignMap and AssignReduce call of the
// scheduler it wraps and counts the assignments; it passes every
// decision through unchanged.
type timedScheduler struct {
	inner sched.Scheduler
	t     *tracer
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) AssignMap(ctx *sched.Context, node topology.NodeID) *job.MapTask {
	s.t.inSched = true
	t0 := time.Now()
	m := s.inner.AssignMap(ctx, node)
	d := time.Since(t0)
	s.t.inSched = false
	s.t.schedTime += d
	s.t.mapUS = append(s.t.mapUS, micros(d))
	if m != nil {
		s.t.mapAssigned++
	}
	return m
}

func (s *timedScheduler) AssignReduce(ctx *sched.Context, node topology.NodeID) *job.ReduceTask {
	s.t.inSched = true
	t0 := time.Now()
	r := s.inner.AssignReduce(ctx, node)
	d := time.Since(t0)
	s.t.inSched = false
	s.t.schedTime += d
	s.t.reduceUS = append(s.t.reduceUS, micros(d))
	if r != nil {
		s.t.reduceAssigned++
	}
	return r
}

// report records the scheduler and observer layers' metrics; run is the
// traced repetition's wall time in seconds.
func (t *tracer) report(r *report, run float64) {
	mapCalls, reduceCalls := len(t.mapUS), len(t.reduceUS)
	r.set("sched.map_calls", "count", float64(mapCalls))
	r.set("sched.reduce_calls", "count", float64(reduceCalls))
	r.set("sched.map_assigned", "count", float64(t.mapAssigned))
	r.set("sched.reduce_assigned", "count", float64(t.reduceAssigned))
	r.set("sched.assign_ratio", "ratio", ratio(float64(t.mapAssigned+t.reduceAssigned), float64(mapCalls+reduceCalls)))
	busy := t.schedSeconds()
	r.set("sched.busy_s", "s", busy)
	r.set("sched.share", "%", 100*busy/run)
	r.set("sched.map_us_p50", "us", quantile(t.mapUS, 0.50))
	r.set("sched.map_us_p99", "us", quantile(t.mapUS, 0.99))
	r.set("sched.reduce_us_p50", "us", quantile(t.reduceUS, 0.50))
	r.set("sched.reduce_us_p99", "us", quantile(t.reduceUS, 0.99))
	var total int
	types := make([]string, 0, len(t.events))
	for typ, n := range t.events {
		total += n
		types = append(types, string(typ))
	}
	sort.Strings(types)
	for _, typ := range types {
		r.set("obs.events."+typ, "count", float64(t.events[obs.Type(typ)]))
	}
	r.set("obs.events", "count", float64(total))
	r.set("obs.sink_s", "s", t.sinkTime.Seconds())
	r.set("obs.sink_share", "%", 100*t.sinkTime.Seconds()/run)
	r.set("topology.rate_updates", "count", float64(t.events[obs.FlowRate]))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// flowRec is one flow of a recorded trace, indexed by its creation id.
type flowRec struct {
	seen       bool
	start, end float64 // simulated seconds; end is NaN until the flow ends
	src, dst   topology.NodeID
	bytes      float64
	persistent bool
	cancelled  bool
}

// flowLog is the counting observer of one simulation: it counts every
// event by type into the tracer and records the flow trace the replay
// re-drives.
type flowLog struct {
	t     *tracer
	flows []flowRec
}

func (t *tracer) newFlowLog() *flowLog { return &flowLog{t: t} }

// Observe implements obs.Observer.
func (l *flowLog) Observe(e obs.Event) {
	t0 := time.Now()
	l.t.events[e.Type]++
	if f := e.Flow; f != nil && (e.Type == obs.FlowStart || e.Type == obs.FlowFinish) {
		for int(f.ID) >= len(l.flows) {
			l.flows = append(l.flows, flowRec{end: math.NaN()})
		}
		rec := &l.flows[f.ID]
		if e.Type == obs.FlowStart {
			rec.seen = true
			rec.start = e.T
			rec.src, rec.dst = topology.NodeID(f.Src), topology.NodeID(f.Dst)
			rec.bytes = f.Bytes
			rec.persistent = f.Persistent
		} else {
			rec.end = e.T
			rec.cancelled = e.Reason == "cancel"
		}
	}
	d := time.Since(t0)
	l.t.sinkTime += d
	if l.t.inSched {
		l.t.sinkInSched += d
	}
}

// replayStats accumulates the flow replays of one traced repetition.
type replayStats struct {
	flows       int
	seconds     float64
	full, inc   int64
	maxErr      float64
	ended, late int // flows with a recorded end; flows replayed off by more than replayTolerance
}

// replayTolerance is how far a replayed flow's finish time may be from
// the recorded one: the replay re-drives the same max-min solver, so only
// float summation order inside an instant can differ.
const replayTolerance = 1e-9

// replay re-drives the recorded flows through a fresh cluster of the same
// shape, up to the run's horizon: every flow starts (or is cancelled) at
// its recorded time, and each completion is checked against the recorded
// finish time. The replay's wall time approximates the flow solver's
// share of the run.
func (l *flowLog) replay(spec topology.Spec, horizon sim.Time, st *replayStats) error {
	eng := sim.NewEngine()
	cl, err := topology.NewCluster(eng, spec)
	if err != nil {
		return err
	}
	got := make([]float64, len(l.flows))
	handles := make([]*topology.Flow, len(l.flows))
	for id := range l.flows {
		id, f := id, l.flows[id]
		got[id] = math.NaN()
		if !f.seen {
			return fmt.Errorf("flow %d has no recorded start", id)
		}
		eng.Schedule(sim.Time(f.start), func() {
			if f.persistent {
				handles[id] = cl.InjectCrossTraffic(f.src, f.dst)
				return
			}
			handles[id] = cl.Transfer(f.src, f.dst, f.bytes, func() { got[id] = float64(eng.Now()) })
		})
		if f.cancelled {
			eng.Schedule(sim.Time(f.end), func() { cl.Net().Cancel(handles[id]) })
		}
	}
	t0 := time.Now()
	if _, err := eng.Run(horizon); err != nil {
		return err
	}
	st.seconds += time.Since(t0).Seconds()
	st.flows += len(l.flows)
	st.full += cl.Net().FullRecomputes()
	st.inc += cl.Net().IncrementalRecomputes()

	var ended int
	for id, f := range l.flows {
		want, have := f.end, got[id]
		if f.cancelled || math.IsNaN(want) {
			if !math.IsNaN(have) {
				return fmt.Errorf("flow %d finished at %v in the replay but not in the run", id, have)
			}
			continue
		}
		ended++
		if math.IsNaN(have) {
			return fmt.Errorf("flow %d finished at %v in the run but not in the replay", id, want)
		}
		diff := math.Abs(have - want)
		if diff > st.maxErr {
			st.maxErr = diff
		}
		if diff > replayTolerance {
			st.late++
		}
	}
	st.ended += ended
	if n := cl.Net().Completed(); n != int64(ended) {
		return fmt.Errorf("the replay completed %d flows, the run %d", n, ended)
	}
	if st.late > 0 {
		return fmt.Errorf("%d flows finished more than %g s from their recorded time (max %g s)", st.late, replayTolerance, st.maxErr)
	}
	return nil
}

// report records the topology layer's metrics; run is the traced
// repetition's wall time in seconds.
func (st *replayStats) report(r *report, run float64) {
	r.set("topology.flows", "count", float64(st.flows))
	r.set("topology.replay_s", "s", st.seconds)
	r.set("topology.replay_share", "%", 100*st.seconds/run)
	r.set("topology.replay_full_recomputes", "count", float64(st.full))
	r.set("topology.replay_inc_recomputes", "count", float64(st.inc))
	r.set("topology.replay_max_err_s", "s", st.maxErr)
}
