// Free-list allocation of the engine's hot-path records: task runs,
// attempts, shuffle source buckets and fetch flights. A simulation
// churns through hundreds of thousands of these — one attempt per task
// attempt, one flight per shuffle fetch — and none outlive their task,
// so pooling turns the steady-state allocation rate to ~zero. Attempts
// have one free list per kind, since map and reduce records bind
// different callbacks and only reduce records carry shuffle maps.
//
// Contract (enforced by the poolreset schedlint analyzer): every release
// function resets all fields of the record before putting it on the free
// list, except the bound callback closures, which deliberately persist —
// they capture only the pooled object's stable pointer and read its
// per-life fields at fire time, so one closure allocation serves every
// life of the object.
//
// Release safety: a record may be released only when nothing can call
// back into it. For attempts that means their sim events are off the
// queue (fired-and-nilled or removed here) and their flows are finished
// or cancelled; both are re-checked defensively below because a
// same-instant tie can leave a transient-failure timer queued after the
// attempt already won.
package engine

import (
	"mapsched/internal/job"
	"mapsched/internal/topology"
)

// newRun allocates the run of task t.
func (s *Simulation) newRun(t taskRef) *taskRun {
	var run *taskRun
	if k := len(s.freeRuns); k > 0 {
		run = s.freeRuns[k-1]
		s.freeRuns[k-1] = nil
		s.freeRuns = s.freeRuns[:k-1]
	} else {
		run = &taskRun{}
	}
	run.task = t
	return run
}

// releaseRun recycles a finished or reverted run and all its attempts.
// Caller guarantees every attempt is dead or won and every in-flight
// fetch was cancelled (kill clears flights; a winning reduce attempt
// cannot have any).
func (s *Simulation) releaseRun(run *taskRun) {
	for _, att := range run.attempts {
		s.releaseAttempt(att)
	}
	//lint:pooled taskRun
	run.task = taskRef{}
	run.attempts = run.attempts[:0]
	s.freeRuns = append(s.freeRuns, run)
}

// newAttempt allocates an attempt of run's task from its kind's free
// list. A fresh record binds its callbacks once, for its kind: they
// capture att alone and read att.run when they fire. A fresh reduce
// record also makes the shuffle maps that every later life reuses.
func (s *Simulation) newAttempt(run *taskRun) *attempt {
	k := run.task.kind
	if n := len(s.freeAtts[k]); n > 0 {
		att := s.freeAtts[k][n-1]
		s.freeAtts[k][n-1] = nil
		s.freeAtts[k] = s.freeAtts[k][:n-1]
		att.run = run
		return att
	}
	att := &attempt{run: run}
	if k == job.MapKind {
		att.fetchFn = func() {
			if att.dead {
				return
			}
			s.topo.Net().Release(att.fetch)
			att.fetch = nil
			att.fetchDone = true
			s.checkAttempt(att)
		}
		att.computeFn = func() {
			// The event just fired; drop the handle before anything can
			// Cancel a recycled event through it.
			att.computeEv = nil
			if att.dead {
				return
			}
			att.computeDone = true
			s.checkAttempt(att)
		}
		att.failFn = func() {
			att.failEv = nil
			s.failAttempt(att)
		}
		return att
	}
	att.pendingSrc = make(map[topology.NodeID]*srcBucket)
	att.flights = make(map[*topology.Flow]*flight)
	att.got = make(map[*job.MapTask]bool)
	att.computeFn = func() {
		att.computeEv = nil
		s.finishReduce(att.run, att)
	}
	// A reduce's scripted failure takes the place of its compute
	// completion event.
	att.failFn = func() {
		att.computeEv = nil
		s.failAttempt(att)
	}
	return att
}

// releaseAttempt detaches anything still pointing at the attempt and
// recycles it. Buckets still queued are released via the deterministic
// queue slice; the shuffle maps are cleared in place so their storage
// carries over to the next life.
func (s *Simulation) releaseAttempt(att *attempt) {
	k := att.run.task.kind
	if att.failEv != nil {
		s.eng.Remove(att.failEv)
	}
	if att.computeEv != nil {
		s.eng.Remove(att.computeEv)
	}
	if att.fetch != nil {
		if !att.fetch.Finished() {
			s.topo.Net().Cancel(att.fetch)
		}
		s.topo.Net().Release(att.fetch)
	}
	for _, src := range att.queue {
		if b, ok := att.pendingSrc[src]; ok {
			delete(att.pendingSrc, src)
			s.releaseBucket(b)
		}
	}
	for src := range att.pendingSrc {
		delete(att.pendingSrc, src)
	}
	for flow := range att.flights {
		delete(att.flights, flow)
	}
	for m := range att.got {
		delete(att.got, m)
	}
	//lint:pooled attempt
	*att = attempt{
		pendingSrc: att.pendingSrc,
		queue:      att.queue[:0],
		flights:    att.flights,
		got:        att.got,
		fetchFn:    att.fetchFn,
		computeFn:  att.computeFn,
		failFn:     att.failFn,
	}
	s.freeAtts[k] = append(s.freeAtts[k], att)
}

func (s *Simulation) newBucket() *srcBucket {
	if k := len(s.freeBuckets); k > 0 {
		b := s.freeBuckets[k-1]
		s.freeBuckets[k-1] = nil
		s.freeBuckets = s.freeBuckets[:k-1]
		return b
	}
	return &srcBucket{}
}

// releaseBucket recycles a shuffle source bucket. A bucket whose maps
// slice was moved into a flight has maps == nil; one drained in place
// keeps its storage.
func (s *Simulation) releaseBucket(b *srcBucket) {
	//lint:pooled srcBucket
	b.bytes = 0
	b.maps = b.maps[:0]
	s.freeBuckets = append(s.freeBuckets, b)
}

// newFlight allocates an in-flight shuffle fetch bound to its attempt.
// The completion callback is allocated once per pooled object: it
// captures fl alone and reads the per-life fields at fire time.
func (s *Simulation) newFlight(att *attempt) *flight {
	var fl *flight
	if k := len(s.freeFlights); k > 0 {
		fl = s.freeFlights[k-1]
		s.freeFlights[k-1] = nil
		s.freeFlights = s.freeFlights[:k-1]
	} else {
		fl = &flight{}
		fl.doneFn = func() {
			att := fl.att
			if att.dead {
				return
			}
			delete(att.flights, fl.flow)
			att.shuffled += fl.bytes
			if r := att.run.task.reduceTask(); r.Node == att.node {
				r.ShuffledBytes = att.shuffled
			}
			s.topo.Net().Release(fl.flow)
			s.releaseFlight(fl)
			s.pumpShuffle(att)
			s.maybeStartReduceCompute(att)
		}
	}
	fl.att = att
	return fl
}

// releaseFlight recycles a completed or aborted fetch flight. A flight
// whose maps slice was re-queued into a bucket has maps == nil; a
// normally completed one keeps its storage for the next life.
func (s *Simulation) releaseFlight(fl *flight) {
	//lint:pooled flight
	fl.att = nil
	fl.src = 0
	fl.bytes = 0
	fl.maps = fl.maps[:0]
	fl.flow = nil
	s.freeFlights = append(s.freeFlights, fl)
}
