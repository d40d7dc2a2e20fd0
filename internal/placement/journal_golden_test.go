package placement

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mapsched/internal/job"
)

// updateGolden rewrites the journal format golden.
//
// Regenerate with: go test ./internal/placement -run TestJournalFormatGolden -update-golden
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/journal.golden")

// TestJournalFormatGolden pins the durable bytes: a journal over a fixed
// delta sequence touching all eight delta ops of both slot kinds, with
// notes on one acquire and one release, then a checkpoint with a client
// note. Journals and checkpoints outlive the build that wrote them, so a
// change that moves a single byte here breaks recovery of existing
// files and must mean to.
func TestJournalFormatGolden(t *testing.T) {
	f, b1, b2 := journalFixture(t)
	var got bytes.Buffer
	if err := f.svc.StartJournal(&got); err != nil {
		t.Fatal(err)
	}
	steps := []func() error{
		func() error { return f.svc.ApplySlotAcquire(job.MapKind, 0) },
		func() error { return f.svc.ApplySlotAcquireNoted(job.ReduceKind, 1, `"job-a" r0`, nil, nil) },
		func() error { return f.svc.ApplySlotAcquire(job.MapKind, 3) },
		func() error { return f.svc.ApplySlotRelease(job.MapKind, 0) },
		func() error { return f.svc.ApplySlotReleaseNoted(job.ReduceKind, 1, `"job-a" r0 done`, nil, nil) },
		func() error { _, err := f.svc.ApplyReplicaAdd(b1, 4); return err },
		func() error { _, err := f.svc.ApplyReplicaLoss(b1, 0); return err },
		func() error { _, err := f.svc.ApplyNodeReplicaLoss(7); return err },
		func() error { return f.svc.ApplyNodeOffline(5, true) },
		func() error { return f.svc.ApplyNodeBlacklist(6, true) },
		func() error { return f.svc.ApplyLinkFactor(2, 0.25) },
		func() error { return f.svc.ApplySlotAcquire(job.ReduceKind, 2) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if _, err := f.svc.ApplyReplicaAdd(b2, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.svc.WriteCheckpoint(&got, func() string { return "client-cut" }); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "journal.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				t.Fatalf("durable bytes diverged from %s at line %d:\nwant %s\ngot  %s", path, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("durable bytes diverged from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
