//lint:allow nodeterminism decision and delta latencies are wall-clock measurements; no reading feeds a decision
package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"mapsched/internal/cluster"
	"mapsched/internal/core"
	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/obs"
	"mapsched/internal/placement"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
	"mapsched/internal/workload"
)

const (
	// decideNodes is the placement service's cluster size: 250 racks of 20.
	decideNodes = 5000
	// writerRate is the open-loop writer's fixed rate in slot
	// acquire+release pairs per second, about the task-lifecycle churn of
	// a busy 5,000-node cluster.
	writerRate = 1000
	// window is how long the reader decides with one Decider before the
	// run's speed is read and the next window starts; every obsEvery-th
	// window decides with the observed Decider.
	window = 500 * time.Millisecond
)

// decideFixture is the BenchmarkPlacement_Decide fixture: a 5,000-node
// hop-cost service state holding four Wordcount jobs of 100 pending maps.
type decideFixture struct {
	deps    placement.Deps
	jobs    []*job.Job
	rng     *sim.RNG
	inputsS float64 // job and block generation
	buildS  float64 // topology, block store and slot state, plus the service build
}

// newDecideFixture builds the fixture's state from seed; the same seed
// gives the same blocks and tasks, which journal recovery relies on.
func newDecideFixture(seed int64) (*decideFixture, error) {
	t0 := time.Now()
	spec := topology.DefaultSpec()
	spec.NodesPerRack = 20
	spec.Racks = decideNodes / spec.NodesPerRack
	cl, err := topology.NewCluster(sim.NewEngine(), spec)
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(seed)
	store := hdfs.NewStore(cl, rng.Fork("hdfs"))
	slots, err := cluster.New(decideNodes, 4, 2)
	if err != nil {
		return nil, err
	}
	f := &decideFixture{
		deps: placement.Deps{Net: cl, Store: store, Rate: cl, Slots: slots, Mode: core.ModeHops},
		rng:  rng,
	}
	t1 := time.Now()
	rngJobs := rng.Fork("jobs")
	for i := 1; i <= 4; i++ {
		j, err := job.New(job.ID(i), job.Spec{
			Name:        fmt.Sprintf("decide-%d", i),
			Profile:     workload.ProfileFor(workload.Wordcount),
			InputBytes:  100 * 128e6,
			BlockSize:   128e6,
			NumReduces:  30,
			Replication: 3,
		}, store, rngJobs)
		if err != nil {
			return nil, err
		}
		f.jobs = append(f.jobs, j)
	}
	f.inputsS = time.Since(t1).Seconds()
	f.buildS = t1.Sub(t0).Seconds()
	return f, nil
}

// service builds the decision service over the fixture's state.
func (f *decideFixture) service() (*placement.Service, error) {
	t0 := time.Now()
	svc, err := placement.NewService(f.deps)
	f.buildS += time.Since(t0).Seconds()
	return svc, err
}

// deltaSample is one acquire+release pair of the writer.
type deltaSample struct {
	late, call, latency float64 // µs: send after due, inside the two calls, done after due
	err                 bool
}

// writeDeltas is the open-loop writer: from start until end it applies one
// slot acquire+release pair every 1/writerRate seconds, each timed from
// the moment it was due. Its samples are allocated up front, so that they
// do not grow the live heap as the run goes on.
func writeDeltas(svc *placement.Service, start, end time.Time) []deltaSample {
	period := time.Second / writerRate
	out := make([]deltaSample, 0, end.Sub(start)/period+1)
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if !due.Before(end) {
			return out
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		n := topology.NodeID(k % decideNodes)
		err := svc.ApplySlotAcquire(placement.MapSlot, n)
		if err == nil {
			err = svc.ApplySlotRelease(placement.MapSlot, n)
		}
		done := time.Now()
		out = append(out, deltaSample{
			late:    micros(sent.Sub(due)),
			call:    micros(done.Sub(sent)),
			latency: micros(done.Sub(due)),
			err:     err != nil,
		})
	}
}

// reader is one Decider with the measurements of its windows.
type reader struct {
	d   *placement.Decider
	req *placement.Request

	decideUS, snapUS, placeUS latencies
	rate                      []float64 // per window: decisions per second at the reference speed
	allocsPer, allocKBPer     []float64 // per window: heap objects and KB per decision
	assigned, torn, errs      int
}

func newReader(svc *placement.Service, f *decideFixture, rng *sim.RNG, stream *obs.Stream) *reader {
	return &reader{
		d:   placement.NewDecider(svc, placement.DefaultConfig(), rng, stream),
		req: &placement.Request{Slowstart: 0.05, Jobs: f.jobs},
	}
}

// decideWindow decides map placements until end, offering nodes in turn
// from *next, and records the window's rate at the reference speed. It
// runs a reference pass every refEvery, on its own thread, and returns
// the clock's interval.
func (rd *reader) decideWindow(svc *placement.Service, clock *refClock, end time.Time, next *int) interval {
	clock.mark()
	c0 := readCounters()
	lastPass := c0.wall
	n := 0
	for ; ; n++ {
		t0 := time.Now()
		if !t0.Before(end) {
			break
		}
		if t0.Sub(lastPass) >= refEvery {
			clock.pass()
			lastPass = time.Now()
			t0 = lastPass
		}
		i := *next
		*next++
		v := svc.Snapshot()
		t1 := time.Now()
		rd.req.Now = sim.Time(i)
		rd.req.AvailMap, rd.req.AvailReduce = v.AvailMap, v.AvailReduce
		m, out := rd.d.PlaceMap(rd.req, topology.NodeID(i%decideNodes))
		t2 := time.Now()
		rd.decideUS.add(micros(t2.Sub(t0)))
		rd.snapUS.add(micros(t1.Sub(t0)))
		rd.placeUS.add(micros(t2.Sub(t1)))
		switch {
		case out.Err != nil:
			rd.errs++
		case out.Torn:
			rd.torn++
		case m != nil:
			rd.assigned++
		}
	}
	c := since(c0)
	iv := clock.read()
	iv.exclude(&c)
	if n > 0 {
		rd.rate = append(rd.rate, float64(n)/(c.wall*iv.speed))
		rd.allocsPer = append(rd.allocsPer, c.allocs/float64(n))
		rd.allocKBPer = append(rd.allocKBPer, c.allocKB/float64(n))
	}
	return iv
}

// measureDecide runs the decide5k workload: one closed-loop reader
// deciding map placements while one open-loop writer applies slot deltas
// with the journal attached, for the time budget; then it audits the
// service and recovers a second one from the journal.
func measureDecide(o options, r *report, clock *refClock) error {
	runStart := time.Now()
	var (
		f   *decideFixture
		svc *placement.Service
	)
	su, err := timeSetup(clock, o.seconds, func() (float64, float64, error) {
		var err error
		if f, err = newDecideFixture(o.seed); err != nil {
			return 0, 0, err
		}
		if svc, err = f.service(); err != nil {
			return 0, 0, err
		}
		return f.inputsS, f.buildS, nil
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}

	// The journal buffer is sized up front, like the writer's samples: a
	// delta record takes about 85 bytes, and 128 leave room.
	var journal bytes.Buffer
	journal.Grow(int(o.seconds*writerRate) * 2 * 128)
	if err := svc.StartJournal(&journal); err != nil {
		return err
	}
	events := obs.NewStream()
	sink := obs.NewJSONL(io.Discard)
	events.Attach(sink)
	plain := newReader(svc, f, f.rng.Fork("reader"), nil)
	observed := newReader(svc, f, f.rng.Fork("observed-reader"), events)
	for _, rd := range []*reader{plain, observed} {
		if err := rd.d.Err(); err != nil {
			r.fail("decider: %v", err)
			return nil
		}
	}

	runtime.GC()
	heap := watchHeap()
	c0 := readCounters()
	start := c0.wall
	end := runStart.Add(time.Duration(o.seconds * float64(time.Second)))
	if first := start.Add(obsEvery * window); end.Before(first) {
		end = first // at least one plain and one observed window
	}
	var deltas []deltaSample
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		deltas = writeDeltas(svc, start, end)
	}()
	next := 0
	var passes interval // every window's reference passes
	for k := 0; ; k++ {
		wEnd := start.Add(time.Duration(k+1) * window)
		if wEnd.After(end) {
			break
		}
		rd := plain
		if k%obsEvery == obsEvery-1 {
			rd = observed
		}
		passes.busy += rd.decideWindow(svc, clock, wEnd, &next).busy
	}
	wg.Wait()
	c := since(c0)
	passes.exclude(&c)
	liveHeap, peakHeap := heap.stop()
	if err := sink.Flush(); err != nil {
		return err
	}

	var lateUS, callUS, latUS []float64
	var deltaErrs int
	for _, s := range deltas {
		lateUS = append(lateUS, s.late)
		callUS = append(callUS, s.call)
		latUS = append(latUS, s.latency)
		if s.err {
			deltaErrs++
		}
	}
	decisions := plain.decideUS.n + observed.decideUS.n
	torn, decErrs := plain.torn+observed.torn, plain.errs+observed.errs
	r.count(decisions+len(deltas), torn+decErrs+deltaErrs)
	if torn > 0 {
		r.fail("%d torn decisions", torn)
	}
	if decErrs > 0 {
		r.fail("%d decisions failed with a Decider error", decErrs)
	}
	if deltaErrs > 0 {
		r.fail("%d delta pairs rejected", deltaErrs)
	}
	epoch := svc.Epoch()
	audit := svc.Audit()
	if !audit.Clean() {
		r.fail("%v", audit)
	}
	if want := uint64(2 * (len(deltas) - deltaErrs)); epoch != want {
		r.fail("service epoch %d after %d applied deltas", epoch, want)
	}
	if err := checkRecovery(o.seed, journal.Bytes(), epoch); err != nil {
		r.fail("journal recovery: %v", err)
	}

	r.set("ops_per_s", "op/s", median(plain.rate))
	r.set("observed_ops_per_s", "op/s", median(observed.rate))
	su.report(r)
	r.set("alloc_kb_per_op", "KB", median(plain.allocKBPer))
	r.set("allocs_per_op", "count", median(plain.allocsPer))
	r.set("live_heap_mb", "MB", liveHeap)
	r.set("go.peak_live_heap_mb", "MB", peakHeap)

	busy := (plain.decideUS.sum + observed.decideUS.sum) / 1e6
	r.set("decide_us_p10", "us", plain.decideUS.quantile(0.10))
	r.set("decide_us_p50", "us", plain.decideUS.quantile(0.50))
	r.set("decide_us_p99", "us", plain.decideUS.quantile(0.99))
	r.set("observed_decide_us_p50", "us", observed.decideUS.quantile(0.50))
	r.set("decisions_per_s", "1/s", float64(plain.decideUS.n)/plain.decideUS.sum*1e6)
	r.set("delta_us_p50", "us", quantile(latUS, 0.50))
	r.set("delta_us_p99", "us", quantile(latUS, 0.99))
	r.set("windows", "count", float64(len(plain.rate)))
	r.set("observed_windows", "count", float64(len(observed.rate)))

	r.set("go.allocs", "count", c.allocs)
	r.set("go.alloc_mb", "MB", c.allocKB/1e3)
	r.set("go.gc_cpu_s", "s", c.gcCPU)
	r.set("go.gc_cycles", "count", c.gcCycles)
	r.set("sched.map_calls", "count", float64(decisions))
	r.set("sched.map_assigned", "count", float64(plain.assigned+observed.assigned))
	r.set("sched.assign_ratio", "ratio", ratio(float64(plain.assigned+observed.assigned), float64(decisions)))
	r.set("sched.busy_s", "s", busy)
	r.set("sched.share", "%", 100*busy/c.wall)
	r.set("sched.map_us_p50", "us", plain.placeUS.quantile(0.50))
	r.set("sched.map_us_p99", "us", plain.placeUS.quantile(0.99))
	r.set("engine.rest_s", "s", c.wall-busy)
	r.set("placement.snapshot_us_p50", "us", plain.snapUS.quantile(0.50))
	r.set("placement.placemap_us_p50", "us", plain.placeUS.quantile(0.50))
	r.set("placement.placemap_us_p99", "us", plain.placeUS.quantile(0.99))
	r.set("placement.deltas", "count", float64(2*len(deltas)))
	r.set("placement.delta_call_us_p50", "us", quantile(callUS, 0.50))
	r.set("placement.delta_call_us_p99", "us", quantile(callUS, 0.99))
	r.set("placement.journal_bytes", "bytes", float64(journal.Len()))
	r.set("placement.epoch_delta", "count", float64(epoch))
	r.set("placement.torn", "count", float64(torn))
	r.set("placement.audit_drift", "count", float64(len(audit.Drift)))
	r.set("gen.late_us_p99", "us", quantile(lateUS, 0.99))
	r.set("max_rss_mb", "MB", maxRSSMB())
	return nil
}

// checkRecovery rebuilds the service from a fresh fixture of the same
// seed and the captured journal, and checks it reaches the live epoch.
func checkRecovery(seed int64, journal []byte, epoch uint64) error {
	f, err := newDecideFixture(seed)
	if err != nil {
		return err
	}
	rec, err := placement.Recover(f.deps, nil, bytes.NewReader(journal))
	if err != nil {
		return err
	}
	if rec.Tail != nil {
		return rec.Tail
	}
	if rec.Epoch != epoch {
		return fmt.Errorf("recovered epoch %d, live epoch %d", rec.Epoch, epoch)
	}
	return nil
}
