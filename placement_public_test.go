package mapsched_test

import (
	"bytes"
	"errors"
	"testing"

	"mapsched"
)

// TestPlacementServiceLifecycle drives the standalone decision service
// through a decide → commit → complete cycle and its error paths.
func TestPlacementServiceLifecycle(t *testing.T) {
	cfg := mapsched.DefaultClusterConfig()
	cfg.Topology.Racks = 2
	cfg.Topology.NodesPerRack = 4
	svc, err := mapsched.NewPlacementService(cfg, mapsched.Batch(mapsched.Wordcount)[:2],
		mapsched.WithScale(40))
	if err != nil {
		t.Fatal(err)
	}

	d := svc.DecideMap(0, 0)
	if !d.Assigned {
		t.Fatalf("first offer on an idle cluster declined: %+v", d)
	}
	if d.P < 0 || d.P > 1 || d.PMin != 0.4 {
		t.Fatalf("breakdown out of domain: %+v", d)
	}
	if err := svc.Commit(d); err != nil {
		t.Fatal(err)
	}
	if err := svc.Complete(d); err != nil {
		t.Fatal(err)
	}
	if err := svc.Complete(d); err == nil {
		t.Fatal("completing a finished task succeeded")
	}
	if err := svc.Commit(mapsched.PlacementDecision{}); err == nil {
		t.Fatal("committing an unassigned decision succeeded")
	}
	if err := svc.SetNodeOffline(99, true); err == nil {
		t.Fatal("offlining an unknown node succeeded")
	}
	if epoch := svc.Epoch(); epoch < 2 {
		t.Fatalf("epoch = %d after commit+complete, want >= 2", epoch)
	}

	// Re-offering must not hand out the finished task again.
	d2 := svc.DecideMap(1, 0)
	if d2.Assigned && d2.Job == d.Job && d2.Task == d.Task && d2.Kind == d.Kind {
		t.Fatal("finished task re-assigned")
	}
}

// TestCommitRejectsUnknownTaskKind: a decision whose kind is neither
// "map" nor "reduce" names no task, so Commit and Complete reject it
// and change nothing.
func TestCommitRejectsUnknownTaskKind(t *testing.T) {
	cfg := mapsched.DefaultClusterConfig()
	cfg.Topology.Racks = 2
	cfg.Topology.NodesPerRack = 4
	svc, err := mapsched.NewPlacementService(cfg, mapsched.Batch(mapsched.Wordcount)[:2],
		mapsched.WithScale(40))
	if err != nil {
		t.Fatal(err)
	}
	d := svc.DecideMap(0, 0)
	if !d.Assigned {
		t.Fatalf("first offer on an idle cluster declined: %+v", d)
	}
	bogus := d
	bogus.Kind, bogus.Task = "bogus", 0
	if err := svc.Commit(bogus); err == nil {
		t.Fatal("committing a decision of unknown kind succeeded")
	}
	if err := svc.Complete(bogus); err == nil {
		t.Fatal("completing a decision of unknown kind succeeded")
	}
	if epoch := svc.Epoch(); epoch != 0 {
		t.Fatalf("epoch = %d after rejected deltas, want 0", epoch)
	}
	if err := svc.Commit(d); err != nil {
		t.Fatal(err)
	}
}

// TestPlacementServiceGatesReduces: before any map has run no job has
// reached the slowstart fraction of map progress, so no reduce offer is
// taken; once the maps have run, one is.
func TestPlacementServiceGatesReduces(t *testing.T) {
	cfg := mapsched.DefaultClusterConfig()
	cfg.Topology.Racks = 2
	cfg.Topology.NodesPerRack = 4
	svc, err := mapsched.NewPlacementService(cfg, mapsched.Batch(mapsched.Wordcount)[:2],
		mapsched.WithScale(40), mapsched.WithDeterministic())
	if err != nil {
		t.Fatal(err)
	}
	nodes := cfg.Topology.Racks * cfg.Topology.NodesPerRack
	reduceTaken := func(now float64) bool {
		for n := 0; n < nodes; n++ {
			if svc.DecideReduce(now, n).Assigned {
				return true
			}
		}
		return false
	}
	if reduceTaken(0) {
		t.Fatal("a reduce was placed before any map ran")
	}
	for now := 1.0; ; now++ {
		var ran []mapsched.PlacementDecision
		for n := 0; n < nodes; n++ {
			if d := svc.DecideMap(now, n); d.Assigned {
				if err := svc.Commit(d); err != nil {
					t.Fatal(err)
				}
				ran = append(ran, d)
			}
		}
		if len(ran) == 0 {
			break
		}
		for _, d := range ran {
			if err := svc.Complete(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !reduceTaken(1e6) {
		t.Fatal("no reduce placed after the maps ran")
	}
}

// TestReplayPublicRoundTrip records a simulation through the public API
// and replays its decision stream engine-free through the public API:
// the faithful replay, its journal, and every way a recording falls
// outside what Replay can verify.
func TestReplayPublicRoundTrip(t *testing.T) {
	cfg := mapsched.DefaultClusterConfig()
	cfg.Topology.Racks = 2
	cfg.Topology.NodesPerRack = 4
	cfg.Seed = 5
	defs := mapsched.Batch(mapsched.Grep)

	var events []mapsched.Event
	collect := mapsched.ObserverFunc(func(e mapsched.Event) { events = append(events, e) })
	opts := []mapsched.Option{mapsched.WithScale(40)}
	sim, err := mapsched.New(cfg, defs, mapsched.SchedulerProbabilistic,
		append(opts, mapsched.WithObserver(collect))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}

	// The faithful replay journals its lifecycle through the façade's
	// delta path: recovering that journal lands on one delta per
	// applied lifecycle event.
	var journal bytes.Buffer
	rep, err := mapsched.Replay(cfg, defs, events, append(opts, mapsched.WithJournal(&journal))...)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MapDecisions == 0 || rep.Deltas == 0 {
		t.Fatalf("replay verified %d map decisions over %d deltas", rep.MapDecisions, rep.Deltas)
	}
	if !rep.Ok() {
		t.Fatalf("replay disagreed with the recording: %v", rep.Mismatches)
	}
	_, rcv, err := mapsched.RecoverPlacementService(cfg, defs, nil, &journal, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if rcv.Tail != nil || rcv.Epoch != uint64(rep.Deltas) {
		t.Fatalf("replay journal recovered to epoch %d (tail %v), want %d deltas", rcv.Epoch, rcv.Tail, rep.Deltas)
	}

	// A replay against the wrong seed rebuilds different block
	// placements: the report must say so rather than silently pass.
	wrongSeed := cfg
	wrongSeed.Seed = 6
	wrong, err := mapsched.Replay(wrongSeed, defs, events, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if wrong.Ok() {
		t.Fatal("replay against the wrong seed reported a faithful stream")
	}

	// Recordings Replay cannot verify: a spliced speculation launch (the
	// tiny jobs above never straggle, so fabricate the event) and a
	// network-condition recording are outside the envelope; two swapped
	// submissions are not the batch's submission order.
	half := len(events) / 2
	spliced := append(append(append([]mapsched.Event{}, events[:half]...),
		mapsched.Event{Type: "spec_start", Job: defs[0].Name()}), events[half:]...)
	if _, err := mapsched.Replay(cfg, defs, spliced, opts...); !errors.Is(err, mapsched.ErrNotReplayable) {
		t.Fatalf("spliced spec_start: err = %v, want ErrNotReplayable", err)
	}
	netcond := cfg
	netcond.CostMode = mapsched.ModeNetworkCondition
	if _, err := mapsched.Replay(netcond, defs, events, opts...); !errors.Is(err, mapsched.ErrNotReplayable) {
		t.Fatalf("netcond replay: err = %v, want ErrNotReplayable", err)
	}
	var submits []int
	for i, e := range events {
		if e.Type == "job_submit" {
			submits = append(submits, i)
		}
	}
	if len(submits) < 2 {
		t.Fatalf("recording has %d job_submit events, want >= 2", len(submits))
	}
	swapped := append([]mapsched.Event{}, events...)
	swapped[submits[0]], swapped[submits[1]] = swapped[submits[1]], swapped[submits[0]]
	if _, err := mapsched.Replay(cfg, defs, swapped, opts...); err == nil {
		t.Fatal("replay accepted swapped job submissions")
	}
}

// TestPlacementServiceCrashRecovery journals a lived-in service through
// the public API, "crashes" it, and recovers from checkpoint + journal:
// the rebuilt service carries the same epoch and task progress, and
// under WithDeterministic its subsequent decision stream is
// bit-identical to the uninterrupted original's.
func TestPlacementServiceCrashRecovery(t *testing.T) {
	var journal bytes.Buffer
	svc, cfg, defs, opts := crashTestService(t, &journal)

	// Live a little: two committed tasks (one completed), a dead node, a
	// degraded link — every delta journaled.
	d1 := commitOn(t, svc, 0)
	if err := svc.Complete(d1); err != nil {
		t.Fatal(err)
	}
	var checkpoint bytes.Buffer
	if err := svc.WriteCheckpoint(&checkpoint); err != nil {
		t.Fatal(err)
	}
	d2 := commitOn(t, svc, 1)
	if err := svc.SetNodeOffline(5, true); err != nil {
		t.Fatal(err)
	}
	if err := svc.SetLinkFactor(3, 0.5); err != nil {
		t.Fatal(err)
	}

	// Crash. Only cfg/defs/opts and the two byte streams survive.
	rec, rcv, err := mapsched.RecoverPlacementService(cfg, defs,
		bytes.NewReader(checkpoint.Bytes()), bytes.NewReader(journal.Bytes()), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if rcv.Tail != nil {
		t.Fatalf("clean journal recovered with tail error %v", rcv.Tail)
	}
	if rcv.Epoch != svc.Epoch() {
		t.Fatalf("recovered epoch %d, original at %d", rcv.Epoch, svc.Epoch())
	}
	if rcv.CheckpointEpoch == 0 || rcv.Skipped == 0 || rcv.Applied == 0 {
		t.Fatalf("recovery did not exercise checkpoint + journal: %+v", rcv)
	}

	// The journaled notes restored task progress: the running task can
	// complete, the finished one cannot restart.
	if err := rec.Complete(d2); err != nil {
		t.Fatalf("completing the recovered running task: %v", err)
	}
	if err := svc.Complete(d2); err != nil { // keep the original in lockstep
		t.Fatal(err)
	}
	if err := rec.Commit(d1); err == nil {
		t.Fatal("recovered service re-committed a finished task")
	}

	// Deterministic decisions must now match offer for offer.
	for node := 0; node < 8; node++ {
		want := svc.DecideMap(2, node)
		got := rec.DecideMap(2, node)
		if want != got {
			t.Fatalf("node %d: recovered decision %+v, original %+v", node, got, want)
		}
	}
}

// TestWithJournalRejectsNilWriter pins the option contract: a nil
// writer is rejected, and so is any journal given to New, which has no
// delta path to journal.
func TestWithJournalRejectsNilWriter(t *testing.T) {
	cfg := mapsched.DefaultClusterConfig()
	defs := mapsched.Batch(mapsched.Grep)[:1]
	var buf bytes.Buffer
	for name, build := range map[string]func() error{
		"NewPlacementService(nil)": func() error {
			_, err := mapsched.NewPlacementService(cfg, defs, mapsched.WithJournal(nil))
			return err
		},
		"New(&buf)": func() error {
			_, err := mapsched.New(cfg, defs, mapsched.SchedulerProbabilistic, mapsched.WithJournal(&buf))
			return err
		},
	} {
		if err := build(); !errors.Is(err, mapsched.ErrInvalidOption) {
			t.Fatalf("%s = %v, want ErrInvalidOption", name, err)
		}
	}
}

// crashTestService builds a small journaled deterministic service for
// the crash-recovery regressions below.
func crashTestService(t *testing.T, journal *bytes.Buffer) (*mapsched.PlacementService, mapsched.ClusterConfig, []mapsched.JobDef, []mapsched.Option) {
	t.Helper()
	cfg := mapsched.DefaultClusterConfig()
	cfg.Topology.Racks = 2
	cfg.Topology.NodesPerRack = 4
	cfg.Seed = 3
	defs := mapsched.Batch(mapsched.Wordcount)[:2]
	opts := []mapsched.Option{mapsched.WithScale(40), mapsched.WithDeterministic()}
	svc, err := mapsched.NewPlacementService(cfg, defs, append(opts, mapsched.WithJournal(journal))...)
	if err != nil {
		t.Fatal(err)
	}
	return svc, cfg, defs, opts
}

// commitOn decides and commits one map task on node.
func commitOn(t *testing.T, svc *mapsched.PlacementService, node int) mapsched.PlacementDecision {
	t.Helper()
	d := svc.DecideMap(0, node)
	if !d.Assigned {
		t.Fatalf("offer on node %d declined: %+v", node, d)
	}
	if err := svc.Commit(d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRecoveredJournalAppendsAfterValidPrefix is the append-after-crash
// protocol of RecoverPlacementService: a torn journal, cut to
// ValidBytes and appended to by the recovered service, recovers again
// to every delta. Left in place, the torn line swallows the next
// record's begin marker and hides every later delta.
func TestRecoveredJournalAppendsAfterValidPrefix(t *testing.T) {
	var journal bytes.Buffer
	svc, cfg, defs, opts := crashTestService(t, &journal)
	for node := 0; node < 3; node++ {
		commitOn(t, svc, node)
	}
	torn := journal.Bytes()[:journal.Len()-5] // crash mid-append of the third commit

	var tail bytes.Buffer
	rec, rcv, err := mapsched.RecoverPlacementService(cfg, defs, nil, bytes.NewReader(torn),
		append(opts, mapsched.WithJournal(&tail))...)
	if err != nil {
		t.Fatal(err)
	}
	if rcv.Epoch != 2 || rcv.Tail == nil || rcv.ValidBytes <= 0 || rcv.ValidBytes >= int64(len(torn)) {
		t.Fatalf("recovery %+v, want epoch 2 with a torn tail inside the journal", rcv)
	}
	commitOn(t, rec, 3)

	resumed := append(append([]byte(nil), torn[:rcv.ValidBytes]...), tail.Bytes()...)
	again, rcv2, err := mapsched.RecoverPlacementService(cfg, defs, nil, bytes.NewReader(resumed), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if rcv2.Tail != nil || rcv2.Epoch != rec.Epoch() || again.Epoch() != rec.Epoch() {
		t.Fatalf("recovered epoch %d (tail %v), service reached %d", rcv2.Epoch, rcv2.Tail, rec.Epoch())
	}
}

// TestCheckpointCarriesTaskState rotates the journal at a checkpoint
// cut: a task committed before the cut must still be running after a
// recovery from the checkpoint plus the rotated journal — completable,
// and not committable a second time.
func TestCheckpointCarriesTaskState(t *testing.T) {
	var journal bytes.Buffer
	svc, cfg, defs, opts := crashTestService(t, &journal)
	d1 := commitOn(t, svc, 0)
	var checkpoint bytes.Buffer
	if err := svc.WriteCheckpoint(&checkpoint); err != nil {
		t.Fatal(err)
	}
	cut := journal.Len() // rotate: later records go to a fresh journal file
	commitOn(t, svc, 1)
	rotated := journal.Bytes()[cut:]

	rec, rcv, err := mapsched.RecoverPlacementService(cfg, defs,
		bytes.NewReader(checkpoint.Bytes()), bytes.NewReader(rotated), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if rcv.Epoch != 2 || rcv.CheckpointEpoch != 1 {
		t.Fatalf("recovery %+v, want epoch 2 over a checkpoint at 1", rcv)
	}
	if err := rec.Commit(d1); err == nil {
		t.Fatal("a task running at the checkpoint was committed a second time")
	}
	if err := rec.Complete(d1); err != nil {
		t.Fatalf("completing a task running at the checkpoint: %v", err)
	}
}
