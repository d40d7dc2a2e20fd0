package placement

// Kill/restart at the Service layer: a reference service runs a seeded
// log over all six journaled delta kinds, then a second run of the same
// log is killed at randomized ops and rebuilt with Recover from the
// latest checkpoint plus the surviving journal bytes. The façade's
// decision-level chaos test lives in the root package.

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"sort"
	"testing"

	"mapsched/internal/job"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
)

// killOp is one delta of the log. Each applies exactly one delta, so op
// i leaves the service at epoch i+1 and a recovery to epoch e resumes at
// op e.
type killOp struct {
	op     Op
	kind   job.TaskKind
	node   topology.NodeID
	on     bool
	factor float64
}

// apply runs the delta against s. A rejected delta reports an error
// and changes nothing.
func (o killOp) apply(s *Service) error {
	var err error
	switch o.op {
	case OpAcquire:
		err = s.ApplySlotAcquire(o.kind, o.node)
	case OpRelease:
		err = s.ApplySlotRelease(o.kind, o.node)
	case OpNodeReplicaLoss:
		_, err = s.ApplyNodeReplicaLoss(o.node)
	case OpOffline:
		err = s.ApplyNodeOffline(o.node, o.on)
	case OpBlacklist:
		err = s.ApplyNodeBlacklist(o.node, o.on)
	case OpLinkFactor:
		err = s.ApplyLinkFactor(o.node, o.factor)
	}
	return err
}

// killOpLog runs the reference: n deltas drawn from a seeded mix of all
// six journaled kinds. It returns the log and the reference's state
// fingerprint at every epoch 0..n.
func killOpLog(t *testing.T, n int) ([]killOp, [][]byte) {
	t.Helper()
	f, _, _ := journalFixture(t)
	nodes := f.slots.Size()
	rng := sim.NewRNG(11).Fork("ops")
	ops := make([]killOp, 0, n)
	fps := [][]byte{fingerprint(t, f.svc)}
	for tries := 0; len(ops) < n; tries++ {
		if tries > 50*n {
			t.Fatalf("op generator stalled at %d of %d ops", len(ops), n)
		}
		o := killOp{node: topology.NodeID(rng.Intn(nodes))}
		switch r := rng.Intn(100); {
		case r < 30:
			o.op, o.kind = OpAcquire, []job.TaskKind{job.MapKind, job.ReduceKind}[rng.Intn(2)]
		case r < 55:
			o.op, o.kind = OpRelease, []job.TaskKind{job.MapKind, job.ReduceKind}[rng.Intn(2)]
		case r < 62:
			o.op = OpNodeReplicaLoss
		case r < 77:
			o.op, o.on = OpOffline, rng.Intn(2) == 0
		case r < 90:
			o.op, o.on = OpBlacklist, rng.Intn(2) == 0
		default:
			o.op, o.factor = OpLinkFactor, []float64{0.5, 1, 2}[rng.Intn(3)]
		}
		if o.apply(f.svc) != nil {
			continue
		}
		ops = append(ops, o)
		if f.svc.Epoch() != uint64(len(ops)) {
			t.Fatalf("op %d (%s) left the reference at epoch %d", len(ops)-1, o.op, f.svc.Epoch())
		}
		fps = append(fps, fingerprint(t, f.svc))
	}
	return ops, fps
}

// crashShape names what a kill leaves of the journal. Unsynced drops
// whole records appended since the last sync point (a checkpoint or a
// recovery) — a clean cut the decoder cannot tell from a shorter run.
// Truncate cuts bytes mid-record off the tail; duplicate and reorder
// damage the middle of the stream, which the seq chain must catch.
type crashShape string

const (
	crashClean     crashShape = "clean"
	crashUnsynced  crashShape = "unsynced"
	crashTruncate  crashShape = "truncate"
	crashDuplicate crashShape = "duplicate"
	crashReorder   crashShape = "reorder"
)

// crashJournal applies shape to a copy of the journal bytes, keeping the
// first synced bytes intact for the unsynced shape. It reports the shape
// actually applied: crashClean when the journal offers no eligible site.
func crashJournal(jb []byte, synced int, shape crashShape, rng *sim.RNG) ([]byte, crashShape) {
	out := append([]byte(nil), jb...)
	lines := bytes.SplitAfter(out, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	isDelta := func(l []byte) bool { return !bytes.Contains(l, []byte(`"op":"begin"`)) }
	switch shape {
	case crashUnsynced:
		if len(out) == synced {
			break
		}
		// Every byte past the sync point is a whole delta line; keep a
		// random line-aligned prefix of them.
		keep := len(out)
		for drop := 1 + rng.Intn(3); drop > 0 && keep > synced; drop-- {
			keep = bytes.LastIndexByte(out[:keep-1], '\n') + 1
		}
		return out[:keep], shape
	case crashTruncate:
		// Cut 2..len-1 bytes off the final line: the closing brace goes,
		// at least one byte stays.
		if len(lines) == 0 || len(lines[len(lines)-1]) < 3 {
			break
		}
		cut := 2 + rng.Intn(len(lines[len(lines)-1])-2)
		return out[:len(out)-cut], shape
	case crashDuplicate, crashReorder:
		// Duplicate a non-final delta line, or swap two adjacent ones:
		// either breaks the seq chain with valid lines still following.
		var elig []int
		for i := 0; i+1 < len(lines); i++ {
			if isDelta(lines[i]) && (shape == crashDuplicate || isDelta(lines[i+1])) {
				elig = append(elig, i)
			}
		}
		if len(elig) == 0 {
			break
		}
		k := elig[rng.Intn(len(elig))]
		if shape == crashDuplicate {
			lines = slices.Insert(lines, k, lines[k])
		} else {
			lines[k], lines[k+1] = lines[k+1], lines[k]
		}
		return bytes.Join(lines, nil), shape
	}
	return out, crashClean
}

// killReport counts what a kill/restart run exercised.
type killReport struct {
	kills, appends, rotates, rederived int
	shapes                             map[crashShape]int
	ops                                map[Op]int
}

// runKillRestart replays the reference log in a second service killed
// at nKills randomized ops. Each kill crashes the journal with the next
// shape in rotation and recovers from the latest checkpoint plus the
// surviving bytes. Recoveries alternate between appending to the
// journal's valid prefix and rotating at a fresh checkpoint. Every
// recovery must classify its damage, audit clean, land no further than
// its shape allows from the kill point, and match the reference's state
// at the recovered epoch byte for byte; so must the end state.
func runKillRestart(t *testing.T, shapes []crashShape) killReport {
	t.Helper()
	const (
		nOps            = 240
		nKills          = 24
		checkpointEvery = 16
	)
	ops, fps := killOpLog(t, nOps)

	rng := sim.NewRNG(5).Fork("kills")
	killSet := make(map[int]bool, nKills)
	for len(killSet) < nKills {
		killSet[1+rng.Intn(nOps-1)] = true
	}
	kills := make([]int, 0, nKills)
	for i := range killSet {
		kills = append(kills, i)
	}
	sort.Ints(kills)

	// The "disk": the latest checkpoint and the journal file, modelled
	// as the bytes kept from before the last recovery (prefix) plus what
	// the live service has appended since (tail). synced is the journal
	// length at the last checkpoint or recovery.
	var cp, prefix []byte
	tail := &bytes.Buffer{}
	s, err := NewService(recoveryDeps(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StartJournal(tail); err != nil {
		t.Fatal(err)
	}
	synced := tail.Len()

	rep := killReport{shapes: map[crashShape]int{}, ops: map[Op]int{}}
	seen := make([]bool, nOps)
	for i := 0; i < nOps; i++ {
		if rep.kills < len(kills) && i == kills[rep.kills] {
			jb := append(append([]byte(nil), prefix...), tail.Bytes()...)
			jb, shape := crashJournal(jb, synced, shapes[rep.kills%len(shapes)], rng)
			var cpr io.Reader
			if cp != nil {
				cpr = bytes.NewReader(cp)
			}
			rcv, err := Recover(recoveryDeps(t), cpr, bytes.NewReader(jb))
			if err != nil {
				t.Fatalf("kill@%d (%s): %v", i, shape, err)
			}
			want := map[crashShape]error{crashTruncate: ErrTruncatedTail,
				crashDuplicate: ErrCorruptRecord, crashReorder: ErrCorruptRecord}[shape]
			switch {
			case want == nil && rcv.Tail != nil:
				t.Fatalf("kill@%d: %s journal recovered with tail %v", i, shape, rcv.Tail)
			case want != nil && !errors.Is(rcv.Tail, want):
				t.Fatalf("kill@%d: %s damage classified %v, want %v", i, shape, rcv.Tail, want)
			}
			rep.shapes[shape]++
			if a := rcv.Service.Audit(); !a.Clean() {
				t.Fatalf("kill@%d: post-recovery drift: %s", i, a)
			}
			// The service died at epoch i. A clean journal loses no
			// delta, an unsynced one nothing before its sync point, and
			// a torn one at most its last record.
			e := rcv.Epoch
			if e > uint64(i) || (shape == crashClean && e != uint64(i)) ||
				(shape == crashUnsynced && (e >= uint64(i) || e < rcv.CheckpointEpoch)) ||
				(shape == crashTruncate && e+1 < uint64(i)) {
				t.Fatalf("kill@%d: %s journal recovered to epoch %d", i, shape, e)
			}
			if got := fingerprint(t, rcv.Service); !bytes.Equal(got, fps[e]) {
				t.Fatalf("kill@%d: recovered state at epoch %d diverges from the reference:\n got %s\nwant %s", i, e, got, fps[e])
			}
			s = rcv.Service
			tail = &bytes.Buffer{}
			// A journal that added nothing past its checkpoint may end
			// behind it and must rotate. Otherwise alternate, out of step
			// with the shape rotation so every shape meets both.
			if (rcv.Applied == 0 && rcv.CheckpointEpoch > 0) || (rep.kills+rep.kills/len(shapes))%2 == 1 {
				cp, prefix = fingerprint(t, s), nil
				rep.rotates++
			} else {
				prefix = jb[:rcv.JournalValidBytes]
				rep.appends++
			}
			if err := s.StartJournal(tail); err != nil {
				t.Fatal(err)
			}
			synced = len(prefix) + tail.Len()
			rep.kills++
			i = int(e) - 1 // the loop increment resumes at op e
			continue
		}

		if err := ops[i].apply(s); err != nil {
			t.Fatalf("op %d (%s): %v", i, ops[i].op, err)
		}
		if e := s.Epoch(); e != uint64(i+1) {
			t.Fatalf("op %d (%s) left the service at epoch %d", i, ops[i].op, e)
		}
		if seen[i] {
			rep.rederived++
		} else {
			rep.ops[ops[i].op]++
		}
		seen[i] = true
		if (i+1)%checkpointEvery == 0 {
			cp = fingerprint(t, s)
			synced = len(prefix) + tail.Len()
		}
	}

	if got := fingerprint(t, s); !bytes.Equal(got, fps[nOps]) {
		t.Fatalf("final state diverges from the uninterrupted run:\n got %s\nwant %s", got, fps[nOps])
	}
	switch {
	case rep.kills < 20:
		t.Fatalf("%d kills, want >= 20", rep.kills)
	case rep.appends < 5 || rep.rotates < 5:
		t.Fatalf("%d appends, %d rotates, want >= 5 each", rep.appends, rep.rotates)
	case rep.rederived == 0:
		t.Fatal("no delta was ever applied twice: the kills lost nothing to re-derive")
	case len(rep.ops) != 6:
		t.Fatalf("op log covers %v, want all six journal ops", rep.ops)
	}
	for _, sh := range shapes {
		if rep.shapes[sh] < 3 {
			t.Fatalf("crash mix %v, want each of %v >= 3 times", rep.shapes, shapes)
		}
	}
	return rep
}

// TestKillRestartConvergence kills the service two dozen times, each
// kill either clean or losing the records appended since the last sync
// point. Every recovery lands on the reference state at its epoch, every
// lost delta re-applies, and the end state equals the uninterrupted
// run's.
func TestKillRestartConvergence(t *testing.T) {
	rep := runKillRestart(t, []crashShape{crashClean, crashUnsynced})
	t.Logf("%d kills (%v, %d appends, %d rotates); %d deltas re-applied; ops %v",
		rep.kills, rep.shapes, rep.appends, rep.rotates, rep.rederived, rep.ops)
}

// TestKillRestartSurvivesTamper rotates journal damage across the kills:
// truncated tails, duplicated and reordered records. Each must be
// classified correctly and recovery must still converge.
func TestKillRestartSurvivesTamper(t *testing.T) {
	rep := runKillRestart(t, []crashShape{crashClean, crashTruncate, crashDuplicate, crashReorder})
	t.Logf("%d kills (%v, %d appends, %d rotates); %d deltas re-applied; ops %v",
		rep.kills, rep.shapes, rep.appends, rep.rotates, rep.rederived, rep.ops)
}
