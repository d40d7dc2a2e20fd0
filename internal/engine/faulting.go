// Fault injection and recovery: the engine-side half of internal/faults.
//
// A node crash is modelled in two stages. crashNode fires at the scripted
// fault time and is purely physical: attempts on the node stop, its
// heartbeats cease, and transfers touching it can no longer proceed — but
// the JobTracker's bookkeeping (slot counts, task states) is untouched,
// because it has no way to know yet. detectNode fires one heartbeat-expiry
// window later and is the JobTracker's reaction: slots are reclaimed, lost
// work is re-queued, block replicas are pruned and the node goes offline.
// All other faults (slowdowns, link degradations, replica losses,
// transient attempt failures) act immediately since they are either
// physical-only or locally observable.
package engine

import (
	"sort"

	"mapsched/internal/job"
	"mapsched/internal/obs"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
)

// scheduleFaults arms every scripted fault of the plan on the event heap.
// Called once from Run; an empty plan schedules nothing.
func (s *Simulation) scheduleFaults() {
	p := s.cfg.Faults
	for _, c := range p.Crashes {
		n := topology.NodeID(c.Node)
		s.eng.Schedule(sim.Time(c.At), func() { s.crashNode(n) })
	}
	for _, sl := range p.Slowdowns {
		n, factor := topology.NodeID(sl.Node), sl.Factor
		s.eng.Schedule(sim.Time(sl.At), func() { s.applySlowdown(n, factor) })
		if sl.Duration > 0 {
			s.eng.Schedule(sim.Time(sl.At+sl.Duration), func() { s.applySlowdown(n, 1) })
		}
	}
	for _, l := range p.Links {
		n, factor := topology.NodeID(l.Node), l.Factor
		s.eng.Schedule(sim.Time(l.At), func() { s.degradeLink(n, factor) })
		if l.Duration > 0 {
			s.eng.Schedule(sim.Time(l.At+l.Duration), func() { s.degradeLink(n, 1) })
		}
	}
	for _, rl := range p.ReplicaLosses {
		n := topology.NodeID(rl.Node)
		s.eng.Schedule(sim.Time(rl.At), func() { s.loseReplicas(n, "disk_lost") })
	}
}

// sortedRuns returns the running tasks of kind k in (job, index) order,
// so fault handling iterates deterministically.
func (s *Simulation) sortedRuns(k job.TaskKind) []*taskRun {
	out := make([]*taskRun, 0, len(s.running[k]))
	for _, run := range s.running[k] {
		out = append(out, run)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].task.before(out[b].task) })
	return out
}

// crashNode kills node d physically. Attempts on d die without releasing
// their slots (the JobTracker still believes they run; the counts are
// parked in held until detection). Attempts elsewhere that were
// streaming data from d lose those transfers: map-input fetches restart
// from another replica, shuffle fetches re-queue until detection clears
// them. Finally the heartbeat-expiry timer is armed.
func (s *Simulation) crashNode(d topology.NodeID) {
	if s.crashed[d] {
		return
	}
	s.crashed[d] = true
	if s.obs.Enabled() {
		s.obs.Emit(obs.Event{T: float64(s.eng.Now()), Type: obs.NodeFail, Node: int(d)})
	}

	for k := job.MapKind; k <= job.ReduceKind; k++ {
		for _, run := range s.sortedRuns(k) {
			srcLost := false
			for _, a := range run.attempts {
				switch {
				case a.dead:
				case a.node == d:
					s.kill(a, false)
					s.held[k][d]++
				case k == job.MapKind && a.fetchSrc == d && !a.fetchDone:
					if !s.restartMapFetch(a) {
						srcLost = true
					}
				default:
					s.reclaimCrashedFetches(a, d)
				}
			}
			// Only revert when a live tracker reported the loss; a task whose
			// every attempt sat on d is reverted at detection instead.
			if srcLost && run.liveAttempts() == 0 {
				s.revert(run.task, d, "source_lost")
			}
		}
	}

	s.eng.After(s.hbExpiry, func() { s.detectNode(d) })
}

// restartMapFetch re-streams a map attempt's input from the nearest live
// replica after its source crashed. When no replica survives the attempt
// is killed (reported by false); compute keeps its original schedule
// otherwise — the re-read overlaps it just like the first read did.
func (s *Simulation) restartMapFetch(att *attempt) bool {
	m := att.run.task.mapTask()
	if att.fetch != nil && !att.fetch.Finished() {
		s.topo.Net().Cancel(att.fetch)
		s.topo.Net().Release(att.fetch)
		att.fetch = nil
	}
	src, ok := s.aliveNearest(m.Block, att.node)
	if !ok {
		s.kill(att, !s.crashed[att.node])
		s.sampleUtil()
		return false
	}
	if src != att.node {
		s.mapRemoteBytes += m.Size
	}
	att.fetchSrc = src
	att.fetch = s.topo.Transfer(src, att.node, m.Size, att.fetchFn)
	return true
}

// reclaimCrashedFetches aborts a reduce attempt's in-flight fetches from
// the crashed node d and re-queues their bytes under source d. pumpShuffle
// skips crashed sources, so the bytes stay pending (blocking the compute
// phase) until detection drops the bucket and re-executes the maps. A map
// attempt has no fetches to reclaim.
func (s *Simulation) reclaimCrashedFetches(att *attempt, d topology.NodeID) {
	var doomed []*topology.Flow
	for flow, fl := range att.flights {
		if fl.src == d {
			doomed = append(doomed, flow)
		}
	}
	if len(doomed) == 0 {
		return
	}
	sort.Slice(doomed, func(a, b int) bool {
		return att.flights[doomed[a]].bytes < att.flights[doomed[b]].bytes
	})
	for _, flow := range doomed {
		fl := att.flights[flow]
		s.topo.Net().Cancel(flow)
		s.topo.Net().Release(flow)
		delete(att.flights, flow)
		b, ok := att.pendingSrc[d]
		if !ok {
			b = s.newBucket()
			att.pendingSrc[d] = b
			att.queue = append(att.queue, d)
		}
		b.bytes += fl.bytes
		b.maps = append(b.maps, fl.maps...)
		s.releaseFlight(fl)
	}
}

// detectNode is the JobTracker's reaction once node d's heartbeats have
// been silent for the expiry window.
func (s *Simulation) detectNode(d topology.NodeID) {
	if s.state.Node(d).Offline() {
		return
	}
	if s.obs.Enabled() {
		e := obs.Event{T: float64(s.eng.Now()), Type: obs.FailureDetected, Node: int(d)}
		e.Dur = s.hbExpiry
		s.obs.Emit(e)
	}

	// Reclaim the slots of attempts that died with the node.
	for k := job.MapKind; k <= job.ReduceKind; k++ {
		for i := 0; i < s.held[k][d]; i++ {
			s.releaseSlot(k, d)
		}
		delete(s.held[k], d)
	}

	// Revert running map tasks whose every attempt died on d.
	for _, run := range s.sortedRuns(job.MapKind) {
		if run.liveAttempts() == 0 {
			s.revert(run.task, d, "attempt_lost")
		}
	}

	// Reduces: drop shuffle state sourced from d (the contributing maps
	// are re-executed below), revert tasks with no surviving attempt, and
	// re-point tasks whose canonical attempt died while a backup lives.
	for _, run := range s.sortedRuns(job.ReduceKind) {
		for _, att := range run.attempts {
			if att.dead {
				continue
			}
			if b, ok := att.pendingSrc[d]; ok {
				delete(att.pendingSrc, d)
				for _, m := range b.maps {
					delete(att.got, m)
				}
				for i, src := range att.queue {
					if src == d {
						att.queue = append(att.queue[:i], att.queue[i+1:]...)
						break
					}
				}
			}
		}
		if run.liveAttempts() == 0 {
			s.revert(run.task, d, "host_failed")
			continue
		}
		if r := run.task.reduceTask(); r.Node == d {
			s.repointReduce(r, run)
		}
	}

	// Re-execute completed maps whose output lived on d and is still
	// needed by an unfinished reduce.
	for _, j := range s.active {
		for _, m := range j.Maps {
			if m.State == job.TaskDone && m.Node == d && s.outputStillNeeded(j, m) {
				s.relaunchLostOutput(m)
			}
		}
	}

	// Take the node out of the cluster and prune its block replicas; jobs
	// whose pending input lost its last replica fail here.
	mustApply(s.place.ApplyNodeOffline(d, true))
	s.sampleUtil()
	s.loseReplicas(d, "node_dead")
}

// reset returns task t to pending: its live attempts are killed
// (releasing the slots of those on uncrashed nodes), its run is recycled,
// and a done task is uncounted from its job.
func (s *Simulation) reset(t taskRef) {
	if run := s.running[t.kind][t]; run != nil {
		for _, a := range run.attempts {
			if !a.dead {
				s.kill(a, !s.crashed[a.node])
			}
		}
		delete(s.running[t.kind], t)
		s.releaseRun(run)
	}
	if t.kind == job.MapKind {
		t.mapTask().Reset()
	} else {
		t.reduceTask().Reset()
	}
}

// relaunchLostOutput re-queues a done map whose output node was declared
// dead, so its re-execution regenerates the output.
func (s *Simulation) relaunchLostOutput(m *job.MapTask) {
	s.relaunchedMaps++
	s.revert(mapRef(m), m.Node, "output_lost")
}

// revert returns task t to the pending pool after its attempts died (or
// a map's output was lost) and reports the relaunch at node at. Every
// reduce revert counts as a relaunch; a map counts only when its output
// was lost (relaunchLostOutput).
func (s *Simulation) revert(t taskRef, at topology.NodeID, reason string) {
	s.reset(t)
	if t.kind == job.ReduceKind {
		s.relaunchedReduces++
	}
	if s.obs.Enabled() {
		e := s.taskEvent(obs.TaskRelaunch, at, t)
		e.Reason = reason
		s.obs.Emit(e)
	}
}

// repointReduce re-targets a reduce task's reported placement at its first
// surviving attempt (after the canonical one died).
func (s *Simulation) repointReduce(r *job.ReduceTask, run *taskRun) {
	for _, att := range run.attempts {
		if !att.dead {
			r.Node = att.node
			r.Locality = att.locality
			r.ShuffledBytes = att.shuffled
			return
		}
	}
}

// failAttempt is a scripted transient failure of one attempt: the
// attempt dies, the task reverts when no attempt survives (a reduce
// re-points at a surviving backup instead), and the retry and blacklist
// tallies advance.
func (s *Simulation) failAttempt(att *attempt) {
	run := att.run
	t := run.task
	if att.dead || s.running[t.kind][t] != run {
		return
	}
	// Reverting the task recycles the run and its attempts, so att must
	// not be read past that point.
	node := att.node
	s.kill(att, !s.crashed[node])
	s.sampleUtil()
	s.attemptFailures++
	if s.obs.Enabled() {
		s.obs.Emit(s.taskEvent(obs.AttemptFail, node, t))
	}
	if run.liveAttempts() == 0 {
		s.revert(t, node, "attempt_fail")
	} else if t.kind == job.ReduceKind && t.reduceTask().Node == node {
		s.repointReduce(t.reduceTask(), run)
	}
	s.noteNodeFailure(t.j, node)
	s.fails[t]++
	if s.fails[t] >= s.cfg.Faults.MaxAttempts() {
		s.failJob(t.j, t.kind.String()+"_attempts_exhausted")
	}
}

// noteNodeFailure tallies an attempt failure against (job, node) and
// blacklists the node at the threshold. A safety valve refuses to
// blacklist half the cluster or more, so a pathological fault plan cannot
// wedge the whole simulation. Blacklist entries are reference-counted by
// the jobs whose tallies crossed the threshold: the last holder's
// teardown releases the node (releaseJobFaultState), so a long-horizon
// arrival stream cannot accumulate stale entries until the half-cluster
// cap starts refusing blacklists of genuinely faulty nodes.
func (s *Simulation) noteNodeFailure(j *job.Job, n topology.NodeID) {
	key := failKey{job: j.ID, node: n}
	s.nodeFails[key]++
	threshold := s.cfg.Faults.BlacklistThreshold()
	if s.nodeFails[key] < threshold {
		return
	}
	if s.state.Node(n).Blacklisted() {
		if s.nodeFails[key] == threshold {
			s.blacklistHolds[n]++ // this job now holds the entry too
		}
		return
	}
	if 2*(len(s.blacklistHolds)+1) >= s.topo.Size() {
		return
	}
	s.everBlacklisted++
	// Every active job already past the threshold holds the entry — not
	// just j: their tallies may have crossed while the cap refused the
	// blacklist, and they must keep the node out until they finish.
	holds := 0
	for _, a := range s.active {
		if s.nodeFails[failKey{job: a.ID, node: n}] >= threshold {
			holds++
		}
	}
	if holds == 0 {
		holds = 1 // j left the active set mid-teardown; count it anyway
	}
	s.blacklistHolds[n] = holds
	mustApply(s.place.ApplyNodeBlacklist(n, true))
	if s.obs.Enabled() {
		s.obs.Emit(obs.Event{T: float64(s.eng.Now()), Type: obs.NodeBlacklist, Node: int(n), Job: j.Spec.Name})
	}
}

// releaseJobFaultState frees the per-job fault bookkeeping once a job
// leaves the system for good: retry tallies, speculation stats, and the
// job's holds on blacklisted nodes — the last holder releases the node
// back into the candidate sets. Nodes are scanned by ID so the release
// order is deterministic.
func (s *Simulation) releaseJobFaultState(j *job.Job) {
	for t := range s.fails {
		if t.j == j {
			delete(s.fails, t)
		}
	}
	delete(s.stats, j.ID)
	threshold := s.cfg.Faults.BlacklistThreshold()
	for i := 0; i < s.topo.Size(); i++ {
		n := topology.NodeID(i)
		key := failKey{job: j.ID, node: n}
		count, ok := s.nodeFails[key]
		if !ok {
			continue
		}
		delete(s.nodeFails, key)
		if count < threshold || !s.state.Node(n).Blacklisted() {
			continue
		}
		s.blacklistHolds[n]--
		if s.blacklistHolds[n] > 0 {
			continue
		}
		delete(s.blacklistHolds, n)
		mustApply(s.place.ApplyNodeBlacklist(n, false))
		if s.obs.Enabled() {
			s.obs.Emit(obs.Event{T: float64(s.eng.Now()), Type: obs.NodeUnblacklist, Node: int(n), Job: j.Spec.Name})
		}
	}
}

// failJob terminates j unsuccessfully: running tasks are torn down,
// pending work is abandoned, and the job leaves the active set with
// Failed set and Finished recording the failure time.
func (s *Simulation) failJob(j *job.Job, reason string) {
	if j.Failed || j.Done() {
		return
	}
	j.Failed = true
	j.Finished = s.eng.Now()
	for i, m := range j.Maps {
		if m.State == job.TaskRunning {
			s.reset(taskRef{j, job.MapKind, i})
		}
	}
	for i, r := range j.Reduces {
		if r.State == job.TaskRunning {
			s.reset(taskRef{j, job.ReduceKind, i})
		}
	}
	s.sampleUtil()
	s.deactivate(j)
	if s.obs.Enabled() {
		e := obs.Event{T: float64(s.eng.Now()), Type: obs.JobFail, Node: -1, Job: j.Spec.Name}
		e.Reason = reason
		e.Dur = float64(j.Finished - j.Submitted)
		s.obs.Emit(e)
	}
	s.onJobEnd(j)
}

// applySlowdown sets node n's compute rate to base/factor (factor 1
// restores the base) and stretches or shrinks the remaining compute time
// of every attempt running there mid-flight. Factors are absolute against
// the node's base speed, so overlapping slowdowns do not compound.
func (s *Simulation) applySlowdown(n topology.NodeID, factor float64) {
	if s.crashed[n] {
		return // a dead node cannot slow down further
	}
	old := s.speedOf[n]
	next := s.baseSpeed[n] / factor
	if next == old {
		return
	}
	s.speedOf[n] = next
	if s.obs.Enabled() {
		s.obs.Emit(obs.Event{T: float64(s.eng.Now()), Type: obs.NodeSlow, Node: int(n), Factor: factor})
	}
	now := s.eng.Now()
	ratio := old / next // > 1: remaining work takes longer

	for k := job.MapKind; k <= job.ReduceKind; k++ {
		for _, run := range s.sortedRuns(k) {
			for _, a := range run.attempts {
				if a.dead || a.node != n || a.computeDone || a.computeEv == nil {
					continue
				}
				elapsed := float64(now - a.computeStart)
				remaining := a.computeDur - elapsed
				if remaining <= 0 {
					continue
				}
				s.eng.Remove(a.computeEv)
				remaining *= ratio
				a.computeDur = elapsed + remaining
				if a.failFrac > 0 {
					// The pending event was a reduce's scripted mid-compute
					// failure at failFrac × dur; keep it at the same progress
					// point.
					fireIn := a.failFrac*a.computeDur - elapsed
					if fireIn < 0 {
						fireIn = 0
					}
					a.computeEv = s.eng.After(fireIn, a.failFn)
				} else {
					a.computeEv = s.eng.After(remaining, a.computeFn)
				}
			}
		}
	}
}

// degradeLink scales node n's access-link capacity to factor × nominal
// (factor 1 restores it). The flow network re-shares every flow and bumps
// its epoch, so network-condition cost caches invalidate exactly.
func (s *Simulation) degradeLink(n topology.NodeID, factor float64) {
	mustApply(s.place.ApplyLinkFactor(n, factor))
	if s.obs.Enabled() {
		s.obs.Emit(obs.Event{T: float64(s.eng.Now()), Type: obs.LinkDegrade, Node: int(n), Factor: factor})
	}
}

// loseReplicas drops every block replica stored on node n and fails any
// active job left with a pending map whose block has no replica anywhere.
func (s *Simulation) loseReplicas(n topology.NodeID, reason string) {
	lost, err := s.place.ApplyNodeReplicaLoss(n)
	mustApply(err)
	if lost == 0 {
		return
	}
	if s.obs.Enabled() {
		e := obs.Event{T: float64(s.eng.Now()), Type: obs.ReplicaLoss, Node: int(n)}
		e.Reason = reason
		s.obs.Emit(e)
	}
	s.checkInputViability()
}

// checkInputViability fails every active job holding a pending map whose
// block lost its last replica — such a map can never be scheduled again,
// so waiting for the horizon would only mask the loss.
func (s *Simulation) checkInputViability() {
	active := append([]*job.Job(nil), s.active...)
	for _, j := range active {
		for _, m := range j.Maps {
			if m.State != job.TaskPending {
				continue
			}
			if len(s.store.Replicas(m.Block)) == 0 {
				s.failJob(j, "input_lost")
				break
			}
		}
	}
}
