package engine

import (
	"math"
	"testing"

	"mapsched/internal/faults"
	"mapsched/internal/job"
	"mapsched/internal/obs"
	"mapsched/internal/sched"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
	"mapsched/internal/workload"
)

// probeAt schedules fn at each instant. Probes armed before Run fire
// ahead of the run's own events at the same instant; they only read
// state, so the run takes the same course with or without them.
func probeAt(s *Simulation, fn func(), at ...float64) {
	for _, x := range at {
		s.eng.Schedule(sim.Time(x), fn)
	}
}

// taskOf returns the state and node of the task t names.
func taskOf(t taskRef) (job.TaskState, topology.NodeID) {
	if t.kind == job.MapKind {
		m := t.mapTask()
		return m.State, m.Node
	}
	r := t.reduceTask()
	return r.State, r.Node
}

// checkAttemptRecords checks the one-attempt-per-task records at one
// instant. Every entry of a job's runs holds the attempt of exactly the
// task at that index, and that task is running on the attempt's node. A
// dead attempt stays only on a crashed node that detection has not yet
// taken offline. Every node's used slots equal its live attempts plus
// the slots parked for crash-killed attempts. It returns the number of
// dead attempts it saw.
func checkAttemptRecords(t *testing.T, s *Simulation) (dead int) {
	t.Helper()
	var live [2]map[topology.NodeID]int
	for k := range live {
		live[k] = make(map[topology.NodeID]int)
	}
	for id, rec := range s.recs {
		if rec == nil {
			continue
		}
		for k := job.MapKind; k <= job.ReduceKind; k++ {
			for i, att := range rec.runs[k] {
				if att == nil {
					continue
				}
				at := att.task
				if at.j.ID != job.ID(id+1) || at.kind != k || at.index != i {
					t.Fatalf("t=%v: runs[%v][%d] of job %d holds the attempt of job %d %v task %d",
						s.eng.Now(), k, i, id+1, at.j.ID, at.kind, at.index)
				}
				if st, n := taskOf(at); st != job.TaskRunning || n != att.node {
					t.Fatalf("t=%v: job %d %v task %d is %v on node %d, its attempt is on node %d",
						s.eng.Now(), id+1, k, i, st, n, att.node)
				}
				if att.dead {
					if !s.trackers[att.node].crashed || s.state.Node(att.node).Offline() {
						t.Fatalf("t=%v: dead attempt of job %d %v task %d kept on node %d, which awaits no detection",
							s.eng.Now(), id+1, k, i, att.node)
					}
					dead++
					continue
				}
				live[k][att.node]++
			}
		}
	}
	for i := 0; i < s.topo.Size(); i++ {
		n := topology.NodeID(i)
		for k := job.MapKind; k <= job.ReduceKind; k++ {
			held := s.trackers[n].held[k]
			if got, want := s.state.Node(n).UsedSlots(k), live[k][n]+held; got != want {
				t.Fatalf("t=%v: node %d uses %d %v slots, has %d live attempts and %d held",
					s.eng.Now(), n, got, k, live[k][n], held)
			}
		}
	}
	return dead
}

// TestRunningTaskHoldsOneAttempt walks the fault lifecycle scenario
// (crash, slowdown, transient failures) in half-second steps and checks
// the attempt records at every step, including the window in which the
// crashed node's dead attempts await detection.
func TestRunningTaskHoldsOneAttempt(t *testing.T) {
	s, err := New(faultLifecycleConfig(), faultSpecs(t, 0.45),
		sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
	if err != nil {
		t.Fatal(err)
	}
	steps, deadSeen := 0, 0
	var at []float64
	for x := 0.25; x < 45; x += 0.5 {
		at = append(at, x)
	}
	probeAt(s, func() {
		steps++
		deadSeen += checkAttemptRecords(t, s)
	}, at...)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Fatalf("unfinished: %s", res)
	}
	if steps != len(at) || deadSeen == 0 {
		t.Fatalf("%d of %d probes ran, %d dead attempts seen: the scenario no longer crashes a busy node",
			steps, len(at), deadSeen)
	}
	if ids := leakedRecords(s); len(ids) != 0 {
		t.Fatalf("records of jobs %v still held after the run", ids)
	}
}

// TestOneHeartbeatPerLiveTracker walks the fault lifecycle scenario in
// half-second steps. While work remains, every uncrashed tracker has its
// beat queued within one heartbeat interval; the crashed tracker's chain
// ends at its first beat after the crash; and no beat outlives the run.
func TestOneHeartbeatPerLiveTracker(t *testing.T) {
	cfg := faultLifecycleConfig()
	s, err := New(cfg, faultSpecs(t, 0.45),
		sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
	if err != nil {
		t.Fatal(err)
	}
	interval := sim.Time(cfg.HeartbeatInterval)
	chainEnd := sim.Time(cfg.Faults.Crashes[0].At) + interval
	busy, crashedBeats := 0, 0
	var at []float64
	for x := 0.25; x < 45; x += 0.5 {
		at = append(at, x)
	}
	probeAt(s, func() {
		now := s.eng.Now()
		if !s.allDone() {
			busy++
		}
		for n := range s.trackers {
			tr := &s.trackers[n]
			if !tr.beat.Queued() {
				if !tr.crashed && !s.allDone() {
					t.Fatalf("t=%v: live node %d has no heartbeat queued", now, n)
				}
				continue
			}
			if b := tr.beat.At(); b < now || b > now+interval {
				t.Fatalf("t=%v: node %d's beat queued at %v, outside one interval", now, n, b)
			}
			if tr.crashed {
				crashedBeats++
				if b := tr.beat.At(); b > chainEnd {
					t.Fatalf("t=%v: crashed node %d's beat queued at %v, after its chain ends at %v", now, n, b, chainEnd)
				}
			}
		}
	}, at...)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Fatalf("unfinished: %s", res)
	}
	for n := range s.trackers {
		if s.trackers[n].beat.Queued() {
			t.Fatalf("node %d's beat still queued after the run", n)
		}
	}
	if busy == 0 || crashedBeats == 0 {
		t.Fatalf("%d probes saw work remaining, %d saw a crashed node's last beat: the scenario no longer covers both",
			busy, crashedBeats)
	}
}

// TestCrashKeepsDeadAttemptUntilDetection crashes a busy node and looks
// at its attempts three times: just before the crash, just after it (the
// attempts are dead but still recorded, their tasks still running and
// their slots held) and just after detection (every one of those tasks
// was reverted, with one task_relaunch each, and the node is offline
// with no slot in use).
func TestCrashKeepsDeadAttemptUntilDetection(t *testing.T) {
	const node, crashAt, expiry = 4, 6.0, 5.0
	cfg := tinyConfig()
	cfg.Seed = 2
	cfg.HeartbeatExpiry = expiry
	cfg.Faults.Crashes = []faults.NodeCrash{{Node: node, At: crashAt}}
	s, err := New(cfg, faultSpecs(t, 0.45), sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
	if err != nil {
		t.Fatal(err)
	}
	tap := &eventTap{}
	if err := s.Attach(tap); err != nil {
		t.Fatal(err)
	}
	var before []*attempt
	var refs []taskRef
	afterCrash, afterDetect := false, false
	probeAt(s, func() {
		s.eachRun(job.MapKind, func(a *attempt) {
			if a.node == node {
				before = append(before, a)
			}
		})
		s.eachRun(job.ReduceKind, func(a *attempt) {
			if a.node == node {
				before = append(before, a)
			}
		})
		for _, a := range before {
			if a.dead {
				t.Fatalf("attempt of %v task %d dead before the crash", a.task.kind, a.task.index)
			}
			refs = append(refs, a.task)
		}
		// Scheduled now, this probe follows the crash event of the same
		// instant.
		s.eng.Schedule(crashAt, func() {
			afterCrash = true
			held := 0
			for i, a := range before {
				if !a.dead || s.rec(refs[i].j).runs[refs[i].kind][refs[i].index] != a {
					t.Fatalf("%v task %d: attempt not kept dead in its record after the crash", refs[i].kind, refs[i].index)
				}
				if st, _ := taskOf(refs[i]); st != job.TaskRunning {
					t.Fatalf("%v task %d is %v before detection, want running", refs[i].kind, refs[i].index, st)
				}
			}
			for _, h := range s.trackers[node].held {
				held += h
			}
			if held != len(before) {
				t.Fatalf("%d slots held for %d crash-killed attempts", held, len(before))
			}
		})
		s.eng.Schedule(crashAt+expiry, func() {
			s.eng.After(0, func() {
				afterDetect = true
				n := s.state.Node(node)
				if !n.Offline() || n.UsedSlots(job.MapKind) != 0 || n.UsedSlots(job.ReduceKind) != 0 {
					t.Fatalf("node %d after detection: offline %v, %d/%d slots used",
						node, n.Offline(), n.UsedSlots(job.MapKind), n.UsedSlots(job.ReduceKind))
				}
				for k, h := range s.trackers[node].held {
					if h != 0 {
						t.Fatalf("%d %v slots still held after detection", h, job.TaskKind(k))
					}
				}
				for _, r := range refs {
					if a := s.rec(r.j).runs[r.kind][r.index]; a != nil && a.node == node {
						t.Fatalf("%v task %d still recorded on node %d after detection", r.kind, r.index, node)
					}
				}
			})
		})
	}, crashAt)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !afterCrash || !afterDetect || len(before) == 0 {
		t.Fatalf("probes ran: after crash %v, after detection %v, with %d attempts on node %d",
			afterCrash, afterDetect, len(before), node)
	}
	if res.Unfinished != 0 {
		t.Fatalf("unfinished: %s", res)
	}
	lost := 0
	for _, e := range tap.ofType(obs.TaskRelaunch) {
		if e.T == crashAt+expiry && e.Node == node && (e.Reason == "attempt_lost" || e.Reason == "host_failed") {
			lost++
		}
	}
	if lost != len(before) {
		t.Fatalf("%d task_relaunch events for attempts lost with node %d, want %d", lost, node, len(before))
	}
}

// TestSlowdownFactorIsAbsolute overlaps two slowdowns on one node: each
// factor is taken against the nominal speed, so the inner window sets
// 1/4, not 1/8, and its end restores the nominal speed although the outer
// window is still open. The outer window's end then changes nothing and
// emits no node_slow event.
func TestSlowdownFactorIsAbsolute(t *testing.T) {
	cfg := tinyConfig()
	cfg.Faults.Slowdowns = []faults.NodeSlowdown{
		{Node: 1, At: 5, Duration: 20, Factor: 2},
		{Node: 1, At: 10, Duration: 5, Factor: 4},
	}
	s, err := New(cfg, faultSpecs(t, 0.2), sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
	if err != nil {
		t.Fatal(err)
	}
	tap := &eventTap{}
	if err := s.Attach(tap); err != nil {
		t.Fatal(err)
	}
	want := map[float64]float64{4: 1, 7: 0.5, 12: 0.25, 16: 1, 26: 1}
	seen := 0
	probeAt(s, func() {
		seen++
		if got := s.trackers[1].speed; got != want[float64(s.eng.Now())] {
			t.Fatalf("t=%v: node 1 speed %v, want %v", s.eng.Now(), got, want[float64(s.eng.Now())])
		}
		if got := s.trackers[0].speed; got != 1 {
			t.Fatalf("t=%v: unslowed node 0 at speed %v", s.eng.Now(), got)
		}
	}, 4, 7, 12, 16, 26)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if seen != len(want) {
		t.Fatalf("%d of %d probes ran", seen, len(want))
	}
	var got [][2]float64
	for _, e := range tap.ofType(obs.NodeSlow) {
		got = append(got, [2]float64{e.T, e.Factor})
	}
	if wantEv := [][2]float64{{5, 2}, {10, 4}, {15, 1}}; len(got) != len(wantEv) ||
		got[0] != wantEv[0] || got[1] != wantEv[1] || got[2] != wantEv[2] {
		t.Fatalf("node_slow (t, factor) = %v, want %v", got, wantEv)
	}
}

// TestSlowdownRescalesRemainingCompute slows a node while maps compute
// there: each attempt keeps the compute it has done and its remaining
// compute stretches by the factor, and its completion event moves to
// match.
func TestSlowdownRescalesRemainingCompute(t *testing.T) {
	const node, at, factor = 1, 4.0, 3.0
	cfg := tinyConfig()
	cfg.Faults.Slowdowns = []faults.NodeSlowdown{{Node: node, At: at, Factor: factor}}
	s, err := New(cfg, faultSpecs(t, 0.2), sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
	if err != nil {
		t.Fatal(err)
	}
	type snap struct {
		a          *attempt
		start      sim.Time
		dur, endAt float64
	}
	var snaps []snap
	checked := false
	probeAt(s, func() {
		s.eachRun(job.MapKind, func(a *attempt) {
			if a.node == node && !a.dead && !a.computeDone && a.computeEv.Queued() {
				snaps = append(snaps, snap{a, a.computeStart, a.computeDur, float64(a.computeEv.At())})
			}
		})
		s.eng.Schedule(at, func() {
			checked = true
			for _, sn := range snaps {
				a := sn.a
				elapsed := at - float64(sn.start)
				wantDur := elapsed + float64((sn.dur-elapsed)*factor)
				if math.Abs(a.computeDur-wantDur) > 1e-9 {
					t.Fatalf("map %d: compute %v stretched to %v, want %v", a.task.index, sn.dur, a.computeDur, wantDur)
				}
				if got, want := float64(a.computeEv.At()), float64(sn.start)+wantDur; math.Abs(got-want) > 1e-9 {
					t.Fatalf("map %d: completion at %v (was %v), want %v", a.task.index, got, sn.endAt, want)
				}
			}
		})
	}, at)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !checked || len(snaps) == 0 {
		t.Fatalf("slowdown probe ran %v over %d computing maps on node %d", checked, len(snaps), node)
	}
	if res.Unfinished != 0 {
		t.Fatalf("unfinished: %s", res)
	}
}

// TestSlowdownIgnoredOnCrashedNode: a slowdown scheduled on a node that
// already crashed changes nothing and emits no node_slow event.
func TestSlowdownIgnoredOnCrashedNode(t *testing.T) {
	cfg := tinyConfig()
	cfg.Faults.Crashes = []faults.NodeCrash{{Node: 2, At: 5}}
	cfg.Faults.Slowdowns = []faults.NodeSlowdown{{Node: 2, At: 10, Duration: 10, Factor: 4}}
	s, err := New(cfg, faultSpecs(t, 0.2), sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
	if err != nil {
		t.Fatal(err)
	}
	tap := &eventTap{}
	if err := s.Attach(tap); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Fatalf("unfinished: %s", res)
	}
	if evs := tap.ofType(obs.NodeSlow); len(evs) != 0 {
		t.Fatalf("node_slow events on a crashed node: %+v", evs)
	}
	if got := s.trackers[2].speed; got != 1 {
		t.Fatalf("crashed node's speed moved to %v", got)
	}
}

// TestRelaunchReasonsMatchCounters tallies the task_relaunch events of
// the fault lifecycle scenario by kind and reason against the run's
// counters: every reduce relaunch counts, a map counts only when its
// output was lost, and each transient failure relaunches its task once.
func TestRelaunchReasonsMatchCounters(t *testing.T) {
	s, err := New(faultLifecycleConfig(), faultSpecs(t, 0.45),
		sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
	if err != nil {
		t.Fatal(err)
	}
	tap := &eventTap{}
	if err := s.Attach(tap); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{"attempt_lost": true, "host_failed": true, "output_lost": true,
		"source_lost": true, "attempt_fail": true}
	var reduces, outputLost, attemptFails int
	for _, e := range tap.ofType(obs.TaskRelaunch) {
		if !known[e.Reason] || e.Task == nil {
			t.Fatalf("task_relaunch with reason %q, task %+v", e.Reason, e.Task)
		}
		switch {
		case e.Task.Kind == "reduce":
			reduces++
		case e.Reason == "output_lost":
			outputLost++
		}
		if e.Reason == "attempt_fail" {
			attemptFails++
		}
	}
	if reduces != res.RelaunchedReduces || outputLost != res.RelaunchedMaps || attemptFails != res.AttemptFailures {
		t.Fatalf("relaunch events: %d reduce, %d output_lost, %d attempt_fail; counters %d, %d, %d",
			reduces, outputLost, attemptFails, res.RelaunchedReduces, res.RelaunchedMaps, res.AttemptFailures)
	}
	if reduces == 0 || outputLost == 0 || attemptFails == 0 {
		t.Fatalf("scenario no longer reaches every relaunch path: %d, %d, %d", reduces, outputLost, attemptFails)
	}
}

// TestReplicaLossFailsJobsWithoutInput drops every replica of a
// single-replica store while both jobs still have pending maps: both
// jobs fail with input_lost instead of waiting for the horizon, and
// their records and slots are released.
func TestReplicaLossFailsJobsWithoutInput(t *testing.T) {
	// Scale 4 leaves each job more maps than the cluster's 32 map slots.
	o := workload.Options{Scale: 4, Replication: 1, SubmitStagger: 1}
	specs, err := workload.Specs([]workload.JobDef{
		{JobID: "01", Kind: workload.Wordcount, InputGB: 20, Maps: 160, Reduces: 169},
		{JobID: "11", Kind: workload.Terasort, InputGB: 20, Maps: 199, Reduces: 186},
	}, o)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	for n := 0; n < cfg.Topology.Racks*cfg.Topology.NodesPerRack; n++ {
		cfg.Faults.ReplicaLosses = append(cfg.Faults.ReplicaLosses, faults.ReplicaLoss{Node: n, At: 2})
	}
	s, err := New(cfg, specs, sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
	if err != nil {
		t.Fatal(err)
	}
	tap := &eventTap{}
	if err := s.Attach(tap); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedJobs != len(specs) || res.Unfinished != 0 {
		t.Fatalf("%d failed and %d unfinished of %d jobs, want every job failed", res.FailedJobs, res.Unfinished, len(specs))
	}
	fails := tap.ofType(obs.JobFail)
	if len(fails) != len(specs) {
		t.Fatalf("%d job_fail events, want %d", len(fails), len(specs))
	}
	for _, e := range fails {
		if e.Reason != "input_lost" || e.T != 2 {
			t.Fatalf("job_fail %s at t=%v with reason %q, want input_lost at t=2", e.Job, e.T, e.Reason)
		}
	}
	if ids := leakedRecords(s); len(ids) != 0 {
		t.Fatalf("records of jobs %v still held", ids)
	}
	for i := 0; i < s.topo.Size(); i++ {
		n := s.state.Node(topology.NodeID(i))
		if n.UsedSlots(job.MapKind) != 0 || n.UsedSlots(job.ReduceKind) != 0 {
			t.Fatalf("node %d holds slots after its jobs failed", i)
		}
	}
}
