package mapsched

// The kill/restart chaos test drives the public recovery path end to
// end: a reference PlacementService runs a seeded op log uninterrupted,
// then a second run of the same log is killed at randomized ops, its
// journal damaged, and rebuilt with RecoverPlacementService from the
// latest checkpoint plus the damaged journal. Every decision derived
// twice must agree, every recovery must audit clean, and the final
// checkpoint must equal the reference's byte for byte.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"testing"

	"mapsched/internal/placement"
	"mapsched/internal/sim"
)

// chaosOp is one journaled façade call of the op log: each op applies
// exactly one delta, so op i leaves the service at epoch i+1 and a
// recovery to epoch e resumes at op e.
type chaosOp struct {
	kind   string // "map", "reduce", "complete", "offline", "blacklist", "link", "loss"
	node   int
	on     bool
	factor float64
	// d is the reference decision of a map or reduce op, and the task a
	// complete op finishes.
	d PlacementDecision
}

// apply runs op i against p and returns the decision a map or reduce op
// derived. A declined offer or a rejected delta returns an error and
// changes nothing.
func (op *chaosOp) apply(p *PlacementService, i int) (PlacementDecision, error) {
	var err error
	switch op.kind {
	case "map", "reduce":
		d := p.DecideMap(float64(i), op.node)
		if op.kind == "reduce" {
			d = p.DecideReduce(float64(i), op.node)
		}
		if !d.Assigned {
			return d, fmt.Errorf("offer on node %d declined", op.node)
		}
		return d, p.Commit(d)
	case "complete":
		err = p.Complete(op.d)
	case "offline":
		err = p.SetNodeOffline(op.node, op.on)
	case "blacklist":
		err = p.SetNodeBlacklisted(op.node, op.on)
	case "link":
		err = p.SetLinkFactor(op.node, op.factor)
	case "loss":
		_, err = p.LoseNodeReplicas(op.node)
	}
	return PlacementDecision{}, err
}

// chaosSetup is the cluster, jobs and options both runs share.
func chaosSetup() (ClusterConfig, []JobDef, []Option) {
	cfg := DefaultClusterConfig()
	cfg.Topology.Racks = 2
	cfg.Topology.NodesPerRack = 4
	cfg.Seed = 9
	// Three replicas over two racks: the two loss nodes (one per rack)
	// can never take a block's last replica.
	return cfg, Batch(Wordcount)[:3], []Option{WithScale(8), WithReplication(3), WithDeterministic()}
}

// chaosOpLog runs the reference: n ops drawn from a seeded mix of all six
// journaled façade calls against an uninterrupted service. It returns
// the op log and the reference's final checkpoint.
func chaosOpLog(t *testing.T, n int) ([]chaosOp, []byte) {
	t.Helper()
	cfg, defs, opts := chaosSetup()
	var journal bytes.Buffer
	ref, err := NewPlacementService(cfg, defs, append(opts, WithJournal(&journal))...)
	if err != nil {
		t.Fatal(err)
	}
	nodes := cfg.Topology.Racks * cfg.Topology.NodesPerRack
	rng := sim.NewRNG(9).Fork("ops")
	var ops []chaosOp
	var running []PlacementDecision
	offline, blacklisted := -1, -1
	for tries := 0; len(ops) < n; tries++ {
		if tries > 50*n {
			t.Fatalf("op generator stalled at %d of %d ops", len(ops), n)
		}
		op := chaosOp{node: rng.Intn(nodes)}
		k := -1
		switch r := rng.Intn(100); {
		case r < 40:
			op.kind = "map"
		case r < 55:
			op.kind = "reduce"
		case r < 85:
			if len(running) == 0 {
				continue
			}
			k = rng.Intn(len(running))
			op.kind, op.d = "complete", running[k]
		case r < 89: // at most one node offline at a time
			op.kind, op.on = "offline", offline < 0
			if offline >= 0 {
				op.node = offline
			}
		case r < 93:
			op.kind, op.on = "blacklist", blacklisted < 0
			if blacklisted >= 0 {
				op.node = blacklisted
			}
		case r < 97:
			op.kind, op.factor = "link", []float64{0.5, 1, 2}[rng.Intn(3)]
		default:
			op.kind, op.node = "loss", 5*rng.Intn(2)
		}
		d, err := op.apply(ref, len(ops))
		if err != nil {
			continue
		}
		switch op.kind {
		case "map", "reduce":
			op.d = d
			running = append(running, d)
		case "complete":
			running = append(running[:k], running[k+1:]...)
		case "offline":
			offline = map[bool]int{true: op.node, false: -1}[op.on]
		case "blacklist":
			blacklisted = map[bool]int{true: op.node, false: -1}[op.on]
		}
		ops = append(ops, op)
		if ref.Epoch() != uint64(len(ops)) {
			t.Fatalf("op %d (%s) left the reference at epoch %d", len(ops)-1, op.kind, ref.Epoch())
		}
	}
	return ops, checkpointOf(t, ref)
}

// checkpointOf returns p's checkpoint bytes.
func checkpointOf(t *testing.T, p *PlacementService) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPlacementServiceKillRestart is the acceptance run of the public
// recovery path: two dozen kills over a 300-op log, journal damage in
// rotation, recoveries alternating between appending to the journal's
// valid prefix and rotating at a fresh checkpoint.
func TestPlacementServiceKillRestart(t *testing.T) {
	const (
		nOps            = 300
		nKills          = 24
		checkpointEvery = 16
	)
	ops, want := chaosOpLog(t, nOps)
	cfg, defs, opts := chaosSetup()

	rng := sim.NewRNG(5).Fork("chaos")
	killSet := make(map[int]bool, nKills)
	for len(killSet) < nKills {
		killSet[1+rng.Intn(nOps-1)] = true
	}
	kills := make([]int, 0, nKills)
	for i := range killSet {
		kills = append(kills, i)
	}
	sort.Ints(kills)
	modes := []tamperMode{tamperNone, tamperTruncate, tamperDuplicate, tamperReorder}

	// The "disk": the latest checkpoint and the journal file, modelled
	// as the bytes kept from before the last recovery (prefix) plus what
	// the live service has appended since (tail).
	var cp, prefix []byte
	tail := &bytes.Buffer{}
	p, err := NewPlacementService(cfg, defs, append(opts, WithJournal(tail))...)
	if err != nil {
		t.Fatal(err)
	}

	seen := make([]bool, nOps)
	opKinds := map[string]int{}
	damage := map[tamperMode]int{}
	var compared, reduces, rederived, appends, rotates int
	next := 0
	for i := 0; i < nOps; i++ {
		if next < len(kills) && i == kills[next] {
			// Kill: the service dies, the disk survives, possibly damaged.
			mode := modes[next%len(modes)]
			jb, damaged := tamperJournal(append(append([]byte(nil), prefix...), tail.Bytes()...), mode, rng)
			if !damaged {
				mode = tamperNone
			}
			var cpr io.Reader
			if cp != nil {
				cpr = bytes.NewReader(cp)
			}
			tail = &bytes.Buffer{}
			var rcv *PlacementRecovery
			p, rcv, err = RecoverPlacementService(cfg, defs, cpr, bytes.NewReader(jb), append(opts, WithJournal(tail))...)
			if err != nil {
				t.Fatalf("kill@%d (%s): %v", i, mode, err)
			}
			switch want := map[tamperMode]error{tamperTruncate: placement.ErrTruncatedTail,
				tamperDuplicate: placement.ErrCorruptRecord, tamperReorder: placement.ErrCorruptRecord}[mode]; {
			case want == nil && rcv.Tail != nil:
				t.Fatalf("kill@%d: undamaged journal recovered with tail %v", i, rcv.Tail)
			case want != nil && !errors.Is(rcv.Tail, want):
				t.Fatalf("kill@%d: %s damage classified %v, want %v", i, mode, rcv.Tail, want)
			}
			damage[mode]++
			if a := p.svc.Audit(); !a.Clean() {
				t.Fatalf("kill@%d: post-recovery drift: %s", i, a)
			}
			// The service died at epoch i. An undamaged journal loses no
			// delta, and a torn one at most its last record.
			if rcv.Epoch > uint64(i) || (mode == tamperNone && rcv.Epoch != uint64(i)) ||
				(mode == tamperTruncate && rcv.Epoch+1 < uint64(i)) {
				t.Fatalf("kill@%d: %s journal recovered to epoch %d", i, mode, rcv.Epoch)
			}
			// A journal that added nothing past its checkpoint may end
			// behind it and must rotate. Otherwise alternate, out of step
			// with the damage rotation so every shape meets both.
			if (rcv.Applied == 0 && rcv.CheckpointEpoch > 0) || (next+next/len(modes))%2 == 1 {
				cp, prefix = checkpointOf(t, p), nil
				rotates++
			} else {
				prefix = jb[:rcv.ValidBytes]
				appends++
			}
			next++
			i = int(rcv.Epoch) - 1 // the loop increment resumes at op Epoch
			continue
		}

		op := &ops[i]
		d, err := op.apply(p, i)
		if err != nil {
			t.Fatalf("op %d (%s): %v", i, op.kind, err)
		}
		if op.kind == "map" || op.kind == "reduce" {
			if d != op.d {
				t.Fatalf("op %d: decision %+v, reference %+v", i, d, op.d)
			}
			compared++
			if op.kind == "reduce" {
				reduces++
			}
			if seen[i] {
				rederived++
			}
		}
		if !seen[i] {
			opKinds[op.kind]++
		}
		seen[i] = true
		if e := p.Epoch(); e != uint64(i+1) {
			t.Fatalf("op %d (%s) left the service at epoch %d", i, op.kind, e)
		}
		if (i+1)%checkpointEvery == 0 {
			cp = checkpointOf(t, p)
		}
	}

	if got := checkpointOf(t, p); !bytes.Equal(got, want) {
		t.Fatalf("final checkpoint diverges from the uninterrupted run:\n got %s\nwant %s", got, want)
	}
	t.Logf("%d kills (damage %v, %d appends, %d rotates); %d decisions compared (%d reduce, %d re-derived); ops %v",
		next, damage, appends, rotates, compared, reduces, rederived, opKinds)
	switch {
	case next < 20:
		t.Fatalf("%d kills, want >= 20", next)
	case damage[tamperTruncate] < 3 || damage[tamperDuplicate] < 3 || damage[tamperReorder] < 3:
		t.Fatalf("damage mix %v, want each shape >= 3 times", damage)
	case appends < 5 || rotates < 5:
		t.Fatalf("%d appends, %d rotates, want >= 5 each", appends, rotates)
	case compared < 100 || reduces == 0 || rederived < 30:
		t.Fatalf("%d decisions compared (%d reduce, %d re-derived), want >= 100, >= 1, >= 30", compared, reduces, rederived)
	case len(opKinds) != 7:
		t.Fatalf("op log covers %v, want all six façade journal ops", opKinds)
	}
}

// tamperMode names a shape of journal damage injected before a
// recovery. Truncate cuts bytes mid-record off the tail (the crash
// shape); duplicate and reorder damage the middle of the stream, which
// the seq chain must catch as corruption.
type tamperMode string

const (
	tamperNone      tamperMode = "none"
	tamperTruncate  tamperMode = "truncate"
	tamperDuplicate tamperMode = "duplicate"
	tamperReorder   tamperMode = "reorder"
)

// tamperJournal damages a copy of the journal bytes per mode, reporting
// whether damage was actually injected (short journals may offer no
// eligible site). Eligible sites are chosen so the damage class is
// deterministic: truncation always cuts mid-record; duplication and
// reordering always break the seq chain with valid lines after the
// break.
func tamperJournal(jb []byte, mode tamperMode, rng *sim.RNG) ([]byte, bool) {
	out := append([]byte(nil), jb...)
	switch mode {
	case tamperTruncate:
		// Cut 2..len-1 bytes off the final record: at least the closing
		// brace goes (cutting only the newline would leave a valid line),
		// at least one byte stays (a clean full-line cut is not damage).
		if len(out) == 0 {
			return out, false
		}
		start := bytes.LastIndexByte(out[:len(out)-1], '\n') + 1
		lineLen := len(out) - start
		if lineLen < 3 {
			return out, false
		}
		cut := 2 + rng.Intn(lineLen-2)
		return out[:len(out)-cut], true

	case tamperDuplicate:
		// Duplicate a non-final delta record in place: the copy's seq
		// repeats, breaking the chain with lines still following.
		// (Duplicating a begin marker would legally rewind, not corrupt.)
		lines := journalLines(out)
		var elig []int
		for i := 0; i+1 < len(lines); i++ {
			if !isBeginLine(lines[i]) {
				elig = append(elig, i)
			}
		}
		if len(elig) == 0 {
			return out, false
		}
		k := elig[rng.Intn(len(elig))]
		dup := make([][]byte, 0, len(lines)+1)
		dup = append(dup, lines[:k+1]...)
		dup = append(dup, lines[k])
		dup = append(dup, lines[k+1:]...)
		return joinLines(dup), true

	case tamperReorder:
		// Swap two adjacent delta records: the earlier position now
		// carries the later seq, breaking the chain mid-stream.
		lines := journalLines(out)
		var elig []int
		for i := 0; i+1 < len(lines); i++ {
			if !isBeginLine(lines[i]) && !isBeginLine(lines[i+1]) {
				elig = append(elig, i)
			}
		}
		if len(elig) == 0 {
			return out, false
		}
		k := elig[rng.Intn(len(elig))]
		lines[k], lines[k+1] = lines[k+1], lines[k]
		return joinLines(lines), true
	}
	return out, false
}

// journalLines splits journal bytes into lines without trailing
// newlines; joinLines is its inverse (every line newline-terminated).
func journalLines(jb []byte) [][]byte {
	lines := bytes.Split(jb, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	return lines
}

func joinLines(lines [][]byte) []byte {
	var out bytes.Buffer
	for _, l := range lines {
		out.Write(l)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// isBeginLine detects begin markers without decoding (the encoder writes
// compact JSON, so the op field appears verbatim).
func isBeginLine(line []byte) bool {
	return bytes.Contains(line, []byte(`"op":"begin"`))
}
