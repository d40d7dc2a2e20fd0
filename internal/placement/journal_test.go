package placement

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"mapsched/internal/cluster"
	"mapsched/internal/core"
	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
)

// StopJournal detaches the journal (if any); subsequent deltas are no
// longer recorded.
func (s *Service) StopJournal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = nil
}

// journalFixture is a fixture with two pre-placed blocks — the base
// state a recovery rebuilds over. Both sides of a recovery test build
// one from the same seed, so their base states are identical.
func journalFixture(t testing.TB) (*fixture, hdfs.BlockID, hdfs.BlockID) {
	t.Helper()
	f := newFixture(t)
	b1, err := f.store.AddBlock(64e6, 1, placeAt{nodes: []topology.NodeID{0}})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := f.store.AddBlock(64e6, 1, placeAt{nodes: []topology.NodeID{7}})
	if err != nil {
		t.Fatal(err)
	}
	return f, b1, b2
}

// journalScript applies a fixed delta sequence covering the full
// vocabulary and returns the delta count.
func journalScript(t testing.TB, f *fixture) int {
	t.Helper()
	steps := []func() error{
		func() error { return f.svc.ApplySlotAcquire(job.MapKind, 0) },
		func() error { return f.svc.ApplySlotAcquireNoted(job.MapKind, 0, `"job-a" 3`, nil, nil) },
		func() error { return f.svc.ApplySlotAcquire(job.ReduceKind, 1) },
		func() error { return f.svc.ApplySlotRelease(job.MapKind, 0) },
		func() error { return f.svc.ApplyNodeOffline(5, true) },
		func() error { return f.svc.ApplyNodeBlacklist(6, true) },
		func() error { return f.svc.ApplyLinkFactor(3, 0.5) },
		func() error { _, err := f.svc.ApplyNodeReplicaLoss(0); return err },
		func() error { return f.svc.ApplySlotAcquireNoted(job.MapKind, 2, "client-note", nil, nil) },
		func() error { return f.svc.ApplyNodeOffline(5, false) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("script step %d: %v", i, err)
		}
	}
	return len(steps)
}

// recoveryDeps builds fresh deps in the journalFixture base state.
func recoveryDeps(t testing.TB) Deps {
	t.Helper()
	f, _, _ := journalFixture(t)
	return Deps{Net: f.net, Store: f.store, Slots: f.slots, Mode: core.ModeHops}
}

// fingerprint reduces a service's full recoverable state to bytes: two
// services with equal fingerprints restore and decide identically.
func fingerprint(t testing.TB, s *Service) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJournalRoundTrip pins the wire format: every delta becomes one
// CRC-protected record, seqs chain gap-free from the begin marker, and
// the decoder returns exactly what was written.
func TestJournalRoundTrip(t *testing.T) {
	f, _, _ := journalFixture(t)
	var buf bytes.Buffer
	if err := f.svc.StartJournal(&buf); err != nil {
		t.Fatal(err)
	}
	n := journalScript(t, f)

	dec, err := DecodeJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Err != nil {
		t.Fatalf("clean journal decoded with damage: %v", dec.Err)
	}
	if len(dec.Records) != n {
		t.Fatalf("decoded %d records, wrote %d deltas", len(dec.Records), n)
	}
	if dec.Epoch != f.svc.Epoch() || dec.Epoch != uint64(n) {
		t.Fatalf("journal epoch %d, service epoch %d, deltas %d", dec.Epoch, f.svc.Epoch(), n)
	}
	for i, r := range dec.Records {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, i+1)
		}
	}
	if dec.ValidBytes != int64(buf.Len()) {
		t.Fatalf("ValidBytes %d, journal length %d", dec.ValidBytes, buf.Len())
	}
	if dec.Records[1].Note != `"job-a" 3` || dec.Records[8].Note != "client-note" {
		t.Fatalf("notes did not round-trip: %q / %q", dec.Records[1].Note, dec.Records[8].Note)
	}
}

// TestRecoverFromJournalOnly rebuilds a service from the journal alone
// and checks the result is bit-identical: same epoch, same full state
// fingerprint, zero drift.
func TestRecoverFromJournalOnly(t *testing.T) {
	f, _, _ := journalFixture(t)
	var buf bytes.Buffer
	if err := f.svc.StartJournal(&buf); err != nil {
		t.Fatal(err)
	}
	n := journalScript(t, f)

	rec, err := Recover(recoveryDeps(t), nil, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Tail != nil {
		t.Fatalf("clean journal recovered with tail verdict %v", rec.Tail)
	}
	if rec.Epoch != f.svc.Epoch() {
		t.Fatalf("recovered epoch %d, original %d", rec.Epoch, f.svc.Epoch())
	}
	if rec.Applied != n || rec.Skipped != 0 {
		t.Fatalf("applied %d skipped %d, want %d/0", rec.Applied, rec.Skipped, n)
	}
	if len(rec.Notes) != 2 || rec.Notes[0].Note != `"job-a" 3` || rec.Notes[1].Note != "client-note" {
		t.Fatalf("surfaced notes %+v, want the acquire and update notes in order", rec.Notes)
	}
	if !bytes.Equal(fingerprint(t, rec.Service), fingerprint(t, f.svc)) {
		t.Fatal("recovered state fingerprint diverges from the original")
	}
	if a := rec.Service.Audit(); !a.Clean() {
		t.Fatalf("post-recovery drift: %s", a)
	}
}

// TestRecoverFromCheckpointAndJournal checkpoints mid-sequence: records
// at or below the checkpoint epoch are skipped, the rest re-apply, and
// the result is bit-identical.
func TestRecoverFromCheckpointAndJournal(t *testing.T) {
	f, _, _ := journalFixture(t)
	var journal bytes.Buffer
	if err := f.svc.StartJournal(&journal); err != nil {
		t.Fatal(err)
	}
	// Three deltas, checkpoint, three more.
	if err := f.svc.ApplySlotAcquire(job.MapKind, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.svc.ApplySlotAcquireNoted(job.MapKind, 0, `"job-a" 3`, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.svc.ApplyNodeOffline(5, true); err != nil {
		t.Fatal(err)
	}
	var cp bytes.Buffer
	if err := f.svc.WriteCheckpoint(&cp, func() string { return "client-state" }); err != nil {
		t.Fatal(err)
	}
	if err := f.svc.ApplyLinkFactor(3, 0.25); err != nil {
		t.Fatal(err)
	}
	if _, err := f.svc.ApplyNodeReplicaLoss(0); err != nil {
		t.Fatal(err)
	}
	if err := f.svc.ApplySlotAcquireNoted(job.MapKind, 1, "post-cp", nil, nil); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(recoveryDeps(t), bytes.NewReader(cp.Bytes()), bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rec.CheckpointEpoch != 3 || rec.Skipped != 3 || rec.Applied != 3 {
		t.Fatalf("cpEpoch=%d skipped=%d applied=%d, want 3/3/3", rec.CheckpointEpoch, rec.Skipped, rec.Applied)
	}
	// The checkpoint carries the client state at its cut, so only the
	// notes past it surface.
	if rec.CheckpointNote != "client-state" {
		t.Fatalf("checkpoint note %q, want %q", rec.CheckpointNote, "client-state")
	}
	if len(rec.Notes) != 1 || rec.Notes[0].Note != "post-cp" {
		t.Fatalf("surfaced notes %+v, want only the post-checkpoint note", rec.Notes)
	}
	if !bytes.Equal(fingerprint(t, rec.Service), fingerprint(t, f.svc)) {
		t.Fatal("recovered state fingerprint diverges from the original")
	}
	if a := rec.Service.Audit(); !a.Clean() {
		t.Fatalf("post-recovery drift: %s", a)
	}
}

// TestJournalDamage pins the decoder's damage taxonomy: damage on the
// final line is a truncated tail, damage mid-stream (including seq-chain
// breaks from duplicated or reordered records) is corruption, and either
// way the valid prefix decodes and recovery lands on it without a panic.
func TestJournalDamage(t *testing.T) {
	f, _, _ := journalFixture(t)
	var buf bytes.Buffer
	if err := f.svc.StartJournal(&buf); err != nil {
		t.Fatal(err)
	}
	n := journalScript(t, f)
	clean := buf.Bytes()
	lines := bytes.Split(bytes.TrimSuffix(clean, []byte("\n")), []byte("\n"))
	if len(lines) != n+1 { // begin marker + one line per delta
		t.Fatalf("journal has %d lines, want %d", len(lines), n+1)
	}

	// unknownKind swaps record 3 for a CRC-valid slot record whose kind
	// is neither map nor reduce: it ends the valid prefix like an
	// unknown op instead of replaying as some slot kind.
	unknownKind := func(op Op) func() []byte {
		return func() []byte {
			var bogus bytes.Buffer
			if err := sealLine(&bogus, Record{V: recordVersion, Seq: 3, Op: op, Kind: "bogus", Node: 1}); err != nil {
				t.Fatal(err)
			}
			out := append([][]byte{}, lines...)
			out[3] = bytes.TrimSuffix(bogus.Bytes(), []byte("\n"))
			return append(bytes.Join(out, []byte("\n")), '\n')
		}
	}
	cases := []struct {
		name    string
		mangle  func() []byte
		want    error
		records int
	}{
		{"truncated_tail", func() []byte {
			return clean[:len(clean)-5]
		}, ErrTruncatedTail, n - 1},
		{"corrupt_middle_byte", func() []byte {
			out := append([]byte(nil), clean...)
			off := 0
			for _, l := range lines[:4] {
				off += len(l) + 1
			}
			out[off+len(lines[4])-3] ^= 0x01 // inside line 4's rec payload
			return out
		}, ErrCorruptRecord, 3},
		{"duplicated_record", func() []byte {
			dup := append([][]byte{}, lines[:4]...)
			dup = append(dup, lines[3])
			dup = append(dup, lines[4:]...)
			return append(bytes.Join(dup, []byte("\n")), '\n')
		}, ErrCorruptRecord, 3},
		{"reordered_records", func() []byte {
			swapped := append([][]byte{}, lines...)
			swapped[2], swapped[3] = swapped[3], swapped[2]
			return append(bytes.Join(swapped, []byte("\n")), '\n')
		}, ErrCorruptRecord, 1},
		{"garbage", func() []byte {
			return []byte("not a journal\nstill not\n")
		}, ErrCorruptRecord, 0},
		{"unknown_kind_acquire", unknownKind(OpAcquire), ErrCorruptRecord, 2},
		{"unknown_kind_release", unknownKind(OpRelease), ErrCorruptRecord, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			damaged := tc.mangle()
			dec, err := DecodeJournal(bytes.NewReader(damaged))
			if err != nil {
				t.Fatal(err)
			}
			if !errors.Is(dec.Err, tc.want) {
				t.Fatalf("verdict %v, want %v", dec.Err, tc.want)
			}
			if len(dec.Records) != tc.records {
				t.Fatalf("decoded %d records, want %d", len(dec.Records), tc.records)
			}
			if int(dec.ValidBytes) > len(damaged) {
				t.Fatalf("ValidBytes %d exceeds input %d", dec.ValidBytes, len(damaged))
			}

			// Recovery over the damage: lands on the last valid record,
			// reports the verdict, zero drift. Never panics.
			rec, err := Recover(recoveryDeps(t), nil, bytes.NewReader(damaged))
			if err != nil {
				t.Fatal(err)
			}
			if (rec.Tail == nil) != (dec.Err == nil) || rec.Epoch != dec.Epoch {
				t.Fatalf("recovery tail=%v epoch=%d, decode err=%v epoch=%d", rec.Tail, rec.Epoch, dec.Err, dec.Epoch)
			}
			if a := rec.Service.Audit(); !a.Clean() {
				t.Fatalf("post-recovery drift: %s", a)
			}
		})
	}
}

// TestJournalResumeAfterDamage is the append-after-crash protocol: trim
// the damaged journal to its valid prefix, recover, re-attach to the
// same bytes (fresh begin marker), keep applying. The combined journal
// must decode cleanly to the full post-crash history.
func TestJournalResumeAfterDamage(t *testing.T) {
	f, _, _ := journalFixture(t)
	var buf bytes.Buffer
	if err := f.svc.StartJournal(&buf); err != nil {
		t.Fatal(err)
	}
	n := journalScript(t, f)
	damaged := buf.Bytes()[:buf.Len()-5] // crash mid-append of the last record

	rec, err := Recover(recoveryDeps(t), nil, bytes.NewReader(damaged))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rec.Tail, ErrTruncatedTail) || rec.Epoch != uint64(n-1) {
		t.Fatalf("tail=%v epoch=%d, want truncated tail at epoch %d", rec.Tail, rec.Epoch, n-1)
	}

	resumed := bytes.NewBuffer(append([]byte(nil), damaged[:rec.JournalValidBytes]...))
	if err := rec.Service.StartJournal(resumed); err != nil {
		t.Fatal(err)
	}
	if err := rec.Service.ApplySlotAcquire(job.MapKind, 2); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeJournal(bytes.NewReader(resumed.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Err != nil {
		t.Fatalf("resumed journal decoded with damage: %v", dec.Err)
	}
	if dec.Epoch != uint64(n) || len(dec.Records) != n {
		t.Fatalf("resumed journal epoch %d with %d records, want %d/%d", dec.Epoch, len(dec.Records), n, n)
	}
}

// TestJournalBrokenIsSticky pins the broken-journal contract: when an
// append fails, the delta is rejected with the state untouched, and so
// is every later delta until the journal is detached.
func TestJournalBrokenIsSticky(t *testing.T) {
	f, _, _ := journalFixture(t)
	w := &failAfter{n: 1} // the begin marker succeeds, the first delta fails
	if err := f.svc.StartJournal(w); err != nil {
		t.Fatal(err)
	}
	before := f.svc.Epoch()
	err := f.svc.ApplySlotAcquire(job.MapKind, 0)
	if !errors.Is(err, ErrJournalBroken) {
		t.Fatalf("delta after write failure: %v, want ErrJournalBroken", err)
	}
	if f.svc.Epoch() != before {
		t.Fatal("rejected delta moved the epoch")
	}
	if got := f.svc.Snapshot(); got.AvailMap.Nodes.Len() != 8 {
		t.Fatal("rejected delta changed availability")
	}
	if err := f.svc.ApplySlotAcquire(job.ReduceKind, 1); !errors.Is(err, ErrJournalBroken) {
		t.Fatalf("journal breakage not sticky: %v", err)
	}
	f.svc.StopJournal()
	if err := f.svc.ApplySlotAcquire(job.MapKind, 0); err != nil {
		t.Fatalf("delta after StopJournal: %v", err)
	}
}

// failAfter accepts n writes then fails forever.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n > 0 {
		w.n--
		return len(p), nil
	}
	return 0, errors.New("disk full")
}

// TestRecoverRejectsBadCheckpoints pins the all-or-nothing checkpoint
// contract and the journal-gap check.
func TestRecoverRejectsBadCheckpoints(t *testing.T) {
	if _, err := Recover(recoveryDeps(t), bytes.NewReader([]byte("junk")), nil); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("garbage checkpoint: %v, want ErrBadCheckpoint", err)
	}

	// A checkpoint from a bigger cluster contradicts the deps.
	big := newFixtureSized(t, 4) // 4 racks => 16 nodes
	var cp bytes.Buffer
	if err := big.svc.WriteCheckpoint(&cp, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(recoveryDeps(t), bytes.NewReader(cp.Bytes()), nil); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("wrong-cluster checkpoint: %v, want ErrBadCheckpoint", err)
	}

	// A journal that starts past the restore point has lost deltas.
	f, _, _ := journalFixture(t)
	if err := f.svc.ApplySlotAcquire(job.MapKind, 0); err != nil { // not journaled
		t.Fatal(err)
	}
	var journal bytes.Buffer
	if err := f.svc.StartJournal(&journal); err != nil {
		t.Fatal(err)
	}
	if err := f.svc.ApplySlotAcquire(job.MapKind, 1); err != nil { // seq 2
		t.Fatal(err)
	}
	if _, err := Recover(recoveryDeps(t), nil, bytes.NewReader(journal.Bytes())); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("gapped journal: %v, want ErrBadCheckpoint", err)
	}
}

// sealedCheckpoint seals checkpoint JSON with a valid CRC, so a test
// reaches restoreCheckpoint with contents WriteCheckpoint never writes.
func sealedCheckpoint(body []byte) []byte {
	return fmt.Appendf(nil, `{"crc":"%08x","rec":%s}`+"\n", crc32.ChecksumIEEE(body), body)
}

// badLinkCheckpoint is a CRC-valid checkpoint of the journalFixture
// cluster whose one link factor no delta may set.
const badLinkCheckpoint = `{"v":1,"epoch":4,"nodes":8,"used_map":[0,0,0,0,0,0,0,0],` +
	`"used_reduce":[0,0,0,0,0,0,0,0],"links":[{"node":3,"factor":-2}],"replicas":[[0],[7]]}`

// TestRecoverRejectsBadLinkFactor holds checkpoint restore to the
// delta path's link rule: a factor ApplyLinkFactor rejects with
// ErrBadLinkFactor fails the restore with ErrBadCheckpoint.
func TestRecoverRejectsBadLinkFactor(t *testing.T) {
	f, _, _ := journalFixture(t)
	if err := f.svc.ApplyLinkFactor(3, -2); !errors.Is(err, ErrBadLinkFactor) {
		t.Fatalf("ApplyLinkFactor(-2) = %v, want ErrBadLinkFactor", err)
	}
	ok := strings.Replace(badLinkCheckpoint, "-2", "0.5", 1)
	if _, err := Recover(recoveryDeps(t), bytes.NewReader(sealedCheckpoint([]byte(ok))), nil); err != nil {
		t.Fatalf("valid checkpoint: %v", err)
	}
	_, err := Recover(recoveryDeps(t), bytes.NewReader(sealedCheckpoint([]byte(badLinkCheckpoint))), nil)
	if !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("negative link factor restored: %v, want ErrBadCheckpoint", err)
	}
}

// FuzzRecoverCheckpoint feeds arbitrary checkpoint JSON, sealed with a
// valid CRC so it reaches restoreCheckpoint: Recover must never panic,
// and either fail with ErrBadCheckpoint or return a service that
// audits clean.
func FuzzRecoverCheckpoint(fz *testing.F) {
	f, _, _ := journalFixture(fz)
	journalScript(fz, f)
	var cp bytes.Buffer
	if err := f.svc.WriteCheckpoint(&cp, func() string { return "client-state" }); err != nil {
		fz.Fatal(err)
	}
	body, err := openLine(bytes.TrimSpace(cp.Bytes()))
	if err != nil {
		fz.Fatal(err)
	}
	fz.Add([]byte(body))
	fz.Add([]byte(badLinkCheckpoint))
	fz.Add([]byte(`{"v":1,"nodes":8}`))
	fz.Add([]byte("{}"))

	fz.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Recover(recoveryDeps(t), bytes.NewReader(sealedCheckpoint(data)), nil)
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("Recover failed with %v, want ErrBadCheckpoint", err)
			}
			return
		}
		if a := rec.Service.Audit(); !a.Clean() {
			t.Fatalf("restored checkpoint audits dirty: %s", a)
		}
	})
}

// newFixtureSized builds a fixture with the given rack count (the
// standard fixture is 2 racks of 4).
func newFixtureSized(t testing.TB, racks int) *fixture {
	t.Helper()
	spec := topology.DefaultSpec()
	spec.Racks = racks
	spec.NodesPerRack = 4
	net, err := topology.NewCluster(sim.NewEngine(), spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(7)
	store := hdfs.NewStore(net, rng.Fork("hdfs"))
	slots, err := cluster.New(net.Size(), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(Deps{Net: net, Store: store, Slots: slots, Mode: core.ModeHops})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{net: net, store: store, slots: slots, svc: svc, rng: rng}
}

// TestDeciderInvalidSurfacesThroughOutcome pins the decider panic fix: a
// decider whose cost model cannot build reports ErrDeciderInvalid
// through Err() and Outcome.Err instead of panicking, and consumes no
// randomness.
func TestDeciderInvalidSurfacesThroughOutcome(t *testing.T) {
	f := newFixture(t)
	bad := &Service{net: f.net, store: nil, slots: f.slots, mode: core.ModeHops}
	d := NewDecider(bad, DefaultConfig(), nil, nil)
	if !errors.Is(d.Err(), ErrDeciderInvalid) {
		t.Fatalf("Err() = %v, want ErrDeciderInvalid", d.Err())
	}
	m, out := d.PlaceMap(&Request{}, 0)
	if m != nil || !errors.Is(out.Err, ErrDeciderInvalid) {
		t.Fatalf("PlaceMap on invalid decider: task=%v err=%v", m, out.Err)
	}
	r, out := d.PlaceReduce(&Request{}, 0)
	if r != nil || !errors.Is(out.Err, ErrDeciderInvalid) {
		t.Fatalf("PlaceReduce on invalid decider: task=%v err=%v", r, out.Err)
	}
	if e := d.EvaluateMap(&Request{}, 0); e.HasBest || e.InstantLocal {
		t.Fatalf("EvaluateMap on invalid decider returned candidates: %+v", e)
	}
}

// FuzzDecodeJournal hammers the decoder with arbitrary bytes: it must
// never panic, never return records off a broken seq chain, never claim
// more valid bytes than the input holds, and its valid prefix must
// re-decode cleanly to the same records.
func FuzzDecodeJournal(fz *testing.F) {
	f, _, _ := journalFixture(fz)
	var buf bytes.Buffer
	if err := f.svc.StartJournal(&buf); err != nil {
		fz.Fatal(err)
	}
	journalScript(fz, f)
	clean := buf.Bytes()
	fz.Add(append([]byte(nil), clean...))
	fz.Add(append([]byte(nil), clean[:len(clean)-7]...))
	fz.Add([]byte(`{"crc":"00000000","rec":{"v":1,"seq":0,"op":"begin"}}` + "\n"))
	fz.Add([]byte("{}\n{}\n"))
	fz.Add([]byte(""))

	fz.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeJournal(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("reader error from in-memory input: %v", err)
		}
		if dec.ValidBytes < 0 || dec.ValidBytes > int64(len(data)) {
			t.Fatalf("ValidBytes %d outside input length %d", dec.ValidBytes, len(data))
		}
		for i := 1; i < len(dec.Records); i++ {
			if dec.Records[i].Seq != dec.Records[i-1].Seq+1 {
				t.Fatalf("records %d/%d break the seq chain: %d -> %d",
					i-1, i, dec.Records[i-1].Seq, dec.Records[i].Seq)
			}
		}
		if n := len(dec.Records); n > 0 && dec.Records[n-1].Seq != dec.Epoch {
			t.Fatalf("epoch %d disagrees with last record seq %d", dec.Epoch, dec.Records[n-1].Seq)
		}
		re, err := DecodeJournal(bytes.NewReader(data[:dec.ValidBytes]))
		if err != nil {
			t.Fatal(err)
		}
		if re.Err != nil {
			t.Fatalf("valid prefix re-decoded with damage: %v", re.Err)
		}
		if len(re.Records) != len(dec.Records) || re.Epoch != dec.Epoch {
			t.Fatalf("valid prefix re-decode: %d records epoch %d, first pass %d/%d",
				len(re.Records), re.Epoch, len(dec.Records), dec.Epoch)
		}
	})
}

// Journaled delta budgets at 5,000 nodes, as measured at commit 0507bb7:
// allocations per acquire+release pair, and journal bytes over a
// 2,000-pair loop (166.3 bytes per pair).
const (
	journalPairAllocBudget = 6
	journalPairs           = 2000
	journalBytesBudget     = 332_655
)

// TestJournaledDeltaCost holds the journaled delta path — one slot
// acquire+release pair on a 5,000-node service — to its allocation and
// byte budgets. Both are deterministic, so a rise means a structural
// regression (a reflection-based encoder, an accidental full-state write
// per delta), not host noise; the path's wall-clock speed is judged by
// cmd/mrbench's decide5k workload, whose writer journals every delta.
func TestJournaledDeltaCost(t *testing.T) {
	f := newFixtureSized(t, 1250) // 1,250 racks of 4: 5,000 nodes
	nodes := f.net.Size()
	var buf bytes.Buffer
	if err := f.svc.StartJournal(&buf); err != nil {
		t.Fatal(err)
	}
	i := 0
	pair := func() {
		n := topology.NodeID(i % nodes)
		i++
		if err := f.svc.ApplySlotAcquire(job.MapKind, n); err != nil {
			t.Fatal(err)
		}
		if err := f.svc.ApplySlotRelease(job.MapKind, n); err != nil {
			t.Fatal(err)
		}
	}
	start := buf.Len()
	for range journalPairs {
		pair()
	}
	if got := buf.Len() - start; got > journalBytesBudget {
		t.Fatalf("%d journal bytes over %d pairs (%.1f per pair), budget %d",
			got, journalPairs, float64(got)/journalPairs, journalBytesBudget)
	}
	if raceEnabled {
		return // the race detector's instrumentation allocates too
	}
	if allocs := testing.AllocsPerRun(journalPairs, pair); allocs > journalPairAllocBudget {
		t.Fatalf("%.0f allocs per journaled pair, budget %d", allocs, journalPairAllocBudget)
	}
}

// TestUnjournaledDeltaAllocs holds a slot acquire+release pair on a node
// with spare slots and no journal attached to zero allocations: the
// pair moves no node in or out of the availability sets, so nothing is
// republished, and with no journal no record is built. The simulation
// engine applies every slot change this way.
func TestUnjournaledDeltaAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	f := newFixture(t)
	pair := func() {
		if err := f.svc.ApplySlotAcquire(job.MapKind, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.svc.ApplySlotRelease(job.MapKind, 0); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(1000, pair); allocs != 0 {
		t.Fatalf("%.2f allocs per unjournaled acquire+release pair, want 0", allocs)
	}
}
