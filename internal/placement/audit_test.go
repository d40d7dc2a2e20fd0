package placement

import (
	"strings"
	"sync"
	"testing"
	"time"

	"mapsched/internal/job"
	"mapsched/internal/metrics"
	"mapsched/internal/obs"
	"mapsched/internal/topology"
)

// AuditorConfig tunes StartAuditor.
type AuditorConfig struct {
	// Interval paces the background audits.
	Interval time.Duration
	// Stream, when non-nil, receives an audit_pass or audit_drift event
	// per audit (audit_drift carries the drift list in Reason).
	Stream *obs.Stream
	// Metrics, when non-nil, tallies placement_audit_pass and
	// placement_audit_drift counters.
	Metrics *metrics.Registry
	// OnReport, when non-nil, receives every report (tests, logging).
	OnReport func(AuditReport)
}

// StartAuditor is the background-audit harness of the stress tests: it
// runs Audit in a goroutine at the configured interval, reporting through
// the configured sinks, until the returned stop function is called (stop
// blocks until the goroutine exits; it is safe to call once). Audits
// serialize with delta writers and deciders through the service lock, so
// the auditor is race-free against both.
func (s *Service) StartAuditor(cfg AuditorConfig) (stop func()) {
	var pass, fail *metrics.Counter
	if cfg.Metrics != nil {
		pass = cfg.Metrics.Counter("placement_audit_pass")
		fail = cfg.Metrics.Counter("placement_audit_drift")
	}
	report := func() {
		r := s.Audit()
		if r.Clean() {
			if pass != nil {
				pass.Inc()
			}
			if cfg.Stream.Enabled() {
				cfg.Stream.Emit(obs.Event{Type: obs.AuditPass, Node: -1})
			}
		} else {
			if fail != nil {
				fail.Inc()
			}
			if cfg.Stream.Enabled() {
				cfg.Stream.Emit(obs.Event{Type: obs.AuditDrift, Node: -1, Reason: strings.Join(r.Drift, "; ")})
			}
		}
		if cfg.OnReport != nil {
			cfg.OnReport(r)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				report()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		wg.Wait()
	}
}

// TestAuditCleanUnderDeltas runs the full delta vocabulary and audits
// after every step: the incremental state must never drift from the
// from-scratch rebuild.
func TestAuditCleanUnderDeltas(t *testing.T) {
	f, b1, _ := journalFixture(t)
	if a := f.svc.Audit(); !a.Clean() || a.Checks < 6 {
		t.Fatalf("fresh service: %s (checks=%d)", a, a.Checks)
	}
	steps := journalScript(t, f, b1)
	a := f.svc.Audit()
	if !a.Clean() {
		t.Fatalf("after %d deltas: %s", steps, a)
	}
	if a.Epoch != f.svc.Epoch() {
		t.Fatalf("audit ran at epoch %d, service at %d", a.Epoch, f.svc.Epoch())
	}
}

// TestAuditDetectsDrift corrupts the incremental state behind the
// service's back and checks the auditor reports it: mutating a block's
// replica slice directly bypasses the store's usage bookkeeping (the
// epoch-guarded mutation contract the schedlint analyzers enforce at
// compile time — the auditor is its runtime backstop).
func TestAuditDetectsDrift(t *testing.T) {
	f, b1, _ := journalFixture(t)
	f.store.Replicas(b1)[0] = 5 // moves the replica, usage stats not updated
	a := f.svc.Audit()
	if a.Clean() {
		t.Fatal("auditor missed behind-the-back replica mutation")
	}
	found := false
	for _, d := range a.Drift {
		if strings.Contains(d, "store usage") {
			found = true
		}
	}
	if !found {
		t.Fatalf("drift report %v does not name the store usage", a.Drift)
	}

	// A duplicated replica is a validity drift, not just a usage drift.
	f2, _, _ := journalFixture(t)
	wide, err := f2.store.AddBlock(64e6, 2, placeAt{nodes: []topology.NodeID{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	reps := f2.store.Replicas(wide)
	reps[1] = reps[0]
	a2 := f2.svc.Audit()
	found = false
	for _, d := range a2.Drift {
		if strings.Contains(d, "duplicate replica") {
			found = true
		}
	}
	if !found {
		t.Fatalf("drift report %v does not flag the duplicate replica", a2.Drift)
	}
}

// TestStartAuditorReportsThroughSinks runs the background auditor
// against clean and drifted states and checks all three sinks: the
// OnReport hook, the metrics counters and the obs stream.
func TestStartAuditorReportsThroughSinks(t *testing.T) {
	f, b1, _ := journalFixture(t)
	reg := metrics.NewRegistry()
	stream := obs.NewStream()
	var mu sync.Mutex
	var events []obs.Event
	stream.Attach(obs.Func(func(e obs.Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}))

	reports := make(chan AuditReport, 16)
	stop := f.svc.StartAuditor(AuditorConfig{
		Interval: time.Millisecond,
		Stream:   stream,
		Metrics:  reg,
		OnReport: func(r AuditReport) {
			select {
			case reports <- r:
			default:
			}
		},
	})
	r := <-reports
	if !r.Clean() {
		t.Fatalf("clean service audited dirty: %s", r)
	}

	// Inject drift and wait for the auditor to see it. An acquire's client
	// hook gives the mutation the write lock (so the injection itself is
	// race-free) but still bypasses the store's usage bookkeeping.
	if err := f.svc.ApplySlotAcquireNoted(job.MapKind, 2, "", nil, func() { f.store.Replicas(b1)[0] = 5 }); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case r = <-reports:
		case <-deadline:
			t.Fatal("auditor never reported the injected drift")
		}
		if !r.Clean() {
			stop()
			goto done
		}
	}
done:
	if reg.Counter("placement_audit_pass").Value() < 1 {
		t.Fatal("no audit_pass counted")
	}
	if reg.Counter("placement_audit_drift").Value() < 1 {
		t.Fatal("no audit_drift counted")
	}
	mu.Lock()
	defer mu.Unlock()
	var sawPass, sawDrift bool
	for _, e := range events {
		switch e.Type {
		case obs.AuditPass:
			sawPass = true
		case obs.AuditDrift:
			sawDrift = true
			if e.Reason == "" {
				t.Fatal("audit_drift event carries no reason")
			}
		}
	}
	if !sawPass || !sawDrift {
		t.Fatalf("stream saw pass=%v drift=%v, want both", sawPass, sawDrift)
	}
}
