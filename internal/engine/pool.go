// Free-list allocation of the engine's hot-path records: attempts,
// shuffle source buckets and fetch flights. A simulation churns through
// hundreds of thousands of these — one attempt per task launch, one
// flight per shuffle fetch — and none outlive their task,
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
// back into it. For attempts that means their embedded sim events are
// off the queue and their flows are finished or cancelled; releaseAttempt
// removes and cancels them itself, because a same-instant tie can leave a
// transient-failure timer queued after the attempt already won.
package engine

import (
	"slices"

	"mapsched/internal/job"
	"mapsched/internal/topology"
)

// newAttempt allocates the attempt of task t from its kind's free list.
// A fresh record binds its callbacks once, for its kind: they capture att
// alone and read att.task when they fire. A fresh reduce record also
// makes the shuffle storage that every later life reuses.
func (s *Simulation) newAttempt(t taskRef) *attempt {
	k := t.kind
	if n := len(s.freeAtts[k]); n > 0 {
		att := s.freeAtts[k][n-1]
		s.freeAtts[k][n-1] = nil
		s.freeAtts[k] = s.freeAtts[k][:n-1]
		att.task = t
		return att
	}
	att := &attempt{task: t}
	// A map's scripted failure has its own timer; a reduce's takes the
	// place of its compute completion event.
	att.failFn = func() { s.failAttempt(att) }
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
			if att.dead {
				return
			}
			att.computeDone = true
			s.checkAttempt(att)
		}
		return att
	}
	att.pendingSrc = make(map[topology.NodeID]*srcBucket)
	att.flights = make([]*flight, 0, shuffleParallelism)
	att.got = make(map[*job.MapTask]bool)
	att.computeFn = func() { s.finishReduce(att) }
	return att
}

// releaseAttempt detaches anything still pointing at the attempt and
// recycles it. Buckets still queued are released via the deterministic
// queue slice; the shuffle maps and slices are cleared in place so their
// storage carries over to the next life.
func (s *Simulation) releaseAttempt(att *attempt) {
	k := att.task.kind
	s.eng.Remove(&att.failEv)
	s.eng.Remove(&att.computeEv)
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
	clear(att.flights)
	for m := range att.got {
		delete(att.got, m)
	}
	//lint:pooled attempt
	*att = attempt{
		pendingSrc: att.pendingSrc,
		queue:      att.queue[:0],
		flights:    att.flights[:0],
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

// releaseBucket recycles a shuffle source bucket, keeping its maps
// storage for the next life.
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
			i := slices.Index(att.flights, fl)
			att.flights = slices.Delete(att.flights, i, i+1)
			att.task.reduceTask().ShuffledBytes += fl.bytes
			s.topo.Net().Release(fl.flow)
			s.releaseFlight(fl)
			s.pumpShuffle(att)
			s.maybeStartReduceCompute(att)
		}
	}
	fl.att = att
	return fl
}

// releaseFlight recycles a completed or aborted fetch flight, keeping
// its maps storage for the next life.
func (s *Simulation) releaseFlight(fl *flight) {
	//lint:pooled flight
	fl.att = nil
	fl.src = 0
	fl.bytes = 0
	fl.maps = fl.maps[:0]
	fl.flow = nil
	s.freeFlights = append(s.freeFlights, fl)
}
