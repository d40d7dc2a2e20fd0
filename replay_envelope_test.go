package mapsched_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mapsched"
	"mapsched/internal/obs"
)

// recordGrepBatch runs the Grep batch under the probabilistic scheduler
// on a 2×4 hop-mode cluster and returns the cluster, the batch, the
// options and the recorded event stream.
func recordGrepBatch(t *testing.T) (mapsched.ClusterConfig, []mapsched.JobDef, []mapsched.Option, []mapsched.Event) {
	t.Helper()
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
	return cfg, defs, opts, events
}

// splice returns events with e inserted halfway through, at the time of
// the event it precedes.
func splice(events []mapsched.Event, e mapsched.Event) []mapsched.Event {
	half := len(events) / 2
	e.T = events[half].T
	out := append([]mapsched.Event{}, events[:half]...)
	return append(append(out, e), events[half:]...)
}

// replayIgnored lists the event types Replay skips: they carry no
// placement state.
var replayIgnored = []obs.Type{obs.FlowStart, obs.FlowFinish, obs.FlowRate}

// replayRejected lists every event type that moves slots or jobs outside
// a recorded batch's task lifecycle, so Replay cannot verify a stream
// holding one.
var replayRejected = []obs.Type{
	obs.NodeFail, obs.TaskRelaunch, obs.FailureDetected, obs.NodeSlow,
	obs.LinkDegrade, obs.AttemptFail, obs.NodeBlacklist, obs.NodeUnblacklist,
	obs.ReplicaLoss, obs.JobFail, obs.AuditPass, obs.AuditDrift,
	obs.JobArrival, obs.JobAdmit, obs.JobReject, obs.JobPreempt,
}

// TestReplayRejectsEventsOutsideLifecycle splices one event of each
// rejected type into a faithful recording: Replay must refuse the stream
// with ErrNotReplayable and name the type, not skip the event and report
// a faithful replay.
func TestReplayRejectsEventsOutsideLifecycle(t *testing.T) {
	cfg, defs, opts, events := recordGrepBatch(t)
	for _, typ := range replayRejected {
		t.Run(string(typ), func(t *testing.T) {
			spliced := splice(events, mapsched.Event{Type: typ, Job: defs[0].Name(), Node: 0})
			rep, err := mapsched.Replay(cfg, defs, spliced, opts...)
			if !errors.Is(err, mapsched.ErrNotReplayable) {
				t.Fatalf("err = %v (report %+v), want ErrNotReplayable", err, rep)
			}
			if !strings.Contains(err.Error(), string(typ)) {
				t.Fatalf("error %q does not name %s", err, typ)
			}
		})
	}
}

// TestReplayIgnoresFlowEvents splices one extra flow event of each
// ignored type into a faithful recording: the replay stays faithful and
// verifies the same decisions over the same deltas.
func TestReplayIgnoresFlowEvents(t *testing.T) {
	cfg, defs, opts, events := recordGrepBatch(t)
	base, err := mapsched.Replay(cfg, defs, events, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Ok() || base.MapDecisions == 0 {
		t.Fatalf("unspliced replay: ok %v over %d map decisions", base.Ok(), base.MapDecisions)
	}
	for _, typ := range replayIgnored {
		t.Run(string(typ), func(t *testing.T) {
			rep, err := mapsched.Replay(cfg, defs, splice(events, mapsched.Event{Type: typ, Node: 0}), opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Ok() || rep.MapDecisions != base.MapDecisions || rep.Deltas != base.Deltas || rep.Events != base.Events+1 {
				t.Fatalf("spliced %s: ok %v, %d decisions over %d deltas in %d events; unspliced %d over %d in %d",
					typ, rep.Ok(), rep.MapDecisions, rep.Deltas, rep.Events, base.MapDecisions, base.Deltas, base.Events)
			}
		})
	}
}

// TestReplayEnvelopeCoversVocabulary parses the obs.Type constants
// declared in internal/obs: each one is applied, ignored or rejected by
// Replay, so a new event type cannot slip past the envelope unlisted.
// The applied types are the batch lifecycle and the map decisions.
func TestReplayEnvelopeCoversVocabulary(t *testing.T) {
	listed := map[obs.Type]bool{
		obs.JobSubmit: true, obs.JobFinish: true, obs.TaskStart: true, obs.TaskFinish: true,
		obs.TaskOffer: true, obs.TaskAssign: true, obs.TaskSkip: true,
	}
	for _, l := range [][]obs.Type{replayIgnored, replayRejected} {
		for _, typ := range l {
			if listed[typ] {
				t.Fatalf("%s listed twice", typ)
			}
			listed[typ] = true
		}
	}
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("internal", "obs", "obs.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	for _, d := range f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok || g.Tok != token.CONST {
			continue
		}
		for _, spec := range g.Specs {
			vs := spec.(*ast.ValueSpec)
			if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "Type" {
				continue
			}
			for i, name := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok {
					t.Fatalf("obs.%s is not a string literal", name.Name)
				}
				v, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				declared++
				if !listed[obs.Type(v)] {
					t.Errorf("obs.%s (%s) is neither applied, ignored nor rejected by Replay", name.Name, v)
				}
			}
		}
	}
	if declared != len(listed) {
		t.Fatalf("internal/obs declares %d event types, the envelope lists %d", declared, len(listed))
	}
}
