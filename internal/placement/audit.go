// Background invariant auditor: rebuild the service's derived state —
// availability membership, per-class free-slot counts, store usage —
// from scratch and diff it against the incrementally maintained state.
// The runtime analogue of the schedlint epoch contracts: the static
// analyzers prove mutation sites bump the right epochs, the auditor
// proves the incremental bookkeeping still equals ground truth while
// the service runs.
//
// The wall clock below paces the opt-in background auditor only; audit
// results never feed a simulated decision or any deterministic output.
//
//lint:allow nodeterminism background auditor cadence is wall-clock, results never feed decisions
package placement

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"mapsched/internal/hdfs"
	"mapsched/internal/metrics"
	"mapsched/internal/obs"
	"mapsched/internal/topology"
)

// AuditReport is the result of one synchronous invariant audit.
type AuditReport struct {
	// Epoch is the delta epoch the audit ran at.
	Epoch uint64
	// Checks counts the invariant groups evaluated.
	Checks int
	// Drift lists every detected divergence between the incremental
	// state and the from-scratch rebuild; empty means zero drift.
	Drift []string
}

// Clean reports whether the audit found zero drift.
func (r AuditReport) Clean() bool { return len(r.Drift) == 0 }

// String renders the report for logs and test failures.
func (r AuditReport) String() string {
	if r.Clean() {
		return fmt.Sprintf("audit@%d: clean (%d checks)", r.Epoch, r.Checks)
	}
	return fmt.Sprintf("audit@%d: %d drift(s): %s", r.Epoch, len(r.Drift), strings.Join(r.Drift, "; "))
}

// usageEps is the relative tolerance for recomputed store usage: byte
// totals are float64 sums whose grouping differs between incremental
// add/subtract and a from-scratch sum.
const usageEps = 1e-6

// Audit rebuilds the derived state from scratch under the write lock
// and diffs it against the incremental state: slot-usage ranges,
// availability-set membership, per-class free-slot counts, replica-set
// validity, store usage statistics and link factors. It is synchronous
// and safe to call concurrently with deciders and delta writers (it
// serializes as one writer turn; the epoch does not move).
func (s *Service) Audit() AuditReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := AuditReport{Epoch: s.epoch}
	drift := func(format string, args ...any) {
		r.Drift = append(r.Drift, fmt.Sprintf(format, args...))
	}
	size := s.slots.Size()

	// 1. Slot usage within capacity on every node (fixed-slot mode; the
	// container model bounds usage through its own headroom check).
	r.Checks++
	for i := 0; i < size; i++ {
		n := s.slots.Node(topology.NodeID(i))
		if n.UsedMapSlots() < 0 || (!n.ResourceMode() && n.UsedMapSlots() > n.MapSlots) {
			drift("node %d: used map slots %d outside [0,%d]", i, n.UsedMapSlots(), n.MapSlots)
		}
		if n.UsedReduceSlots() < 0 || (!n.ResourceMode() && n.UsedReduceSlots() > n.ReduceSlots) {
			drift("node %d: used reduce slots %d outside [0,%d]", i, n.UsedReduceSlots(), n.ReduceSlots)
		}
	}

	// 2+3. Availability membership and per-class counts, rebuilt from
	// per-node free-slot ground truth.
	r.Checks += 2
	s.auditAvailLocked(&r, "map", s.slots.AvailMapNodes(), func(n topology.NodeID) bool {
		return s.slots.Node(n).FreeMapSlots() > 0
	}, drift)
	s.auditAvailLocked(&r, "reduce", s.slots.AvailReduceNodes(), func(n topology.NodeID) bool {
		return s.slots.Node(n).FreeReduceSlots() > 0
	}, drift)

	// 4. Replica sets valid: every replica on a known node, no
	// duplicates within a block.
	r.Checks++
	seen := make(map[topology.NodeID]struct{}, 8)
	for b := 0; b < s.store.NumBlocks(); b++ {
		clear(seen)
		for _, rep := range s.store.Replicas(hdfs.BlockID(b)) {
			if int(rep) < 0 || int(rep) >= size {
				drift("block %d: replica on unknown node %d", b, rep)
				continue
			}
			if _, dup := seen[rep]; dup {
				drift("block %d: duplicate replica on node %d", b, rep)
			}
			seen[rep] = struct{}{}
		}
	}

	// 5. Store usage statistics equal a from-scratch sum over replicas
	// (the coster-cache input for storage-balance diagnostics).
	r.Checks++
	usage := make([]float64, size)
	for b := 0; b < s.store.NumBlocks(); b++ {
		blk := s.store.Block(hdfs.BlockID(b))
		for _, rep := range blk.Replicas {
			if int(rep) >= 0 && int(rep) < size {
				usage[rep] += blk.Size
			}
		}
	}
	for i := 0; i < size; i++ {
		got := s.store.Usage(topology.NodeID(i))
		want := usage[i]
		if diff := math.Abs(got - want); diff > usageEps*math.Max(1, math.Abs(want)) {
			drift("node %d: store usage %g, recomputed %g", i, got, want)
		}
	}

	// 6. Link factors finite and non-negative.
	r.Checks++
	for i, f := range s.linkFactors {
		if badLinkFactor(f) {
			drift("node %d: link factor %v", i, f)
		}
	}
	return r
}

// auditAvailLocked checks one slot kind's published availability
// snapshot and per-class counts against ground truth. Caller holds the
// write lock and guarantees the snapshots are materialized
// (refreshLocked ran after the last delta).
func (s *Service) auditAvailLocked(r *AuditReport, kind string, snapshot []topology.NodeID, free func(topology.NodeID) bool, drift func(string, ...any)) {
	want := make([]topology.NodeID, 0, len(snapshot))
	for i := 0; i < s.slots.Size(); i++ {
		if n := topology.NodeID(i); free(n) {
			want = append(want, n)
		}
	}
	match := len(want) == len(snapshot)
	if match {
		for i := range want {
			if want[i] != snapshot[i] {
				match = false
				break
			}
		}
	}
	if !match {
		drift("%s avail snapshot %v, recomputed %v", kind, snapshot, want)
	}

	var counts []int
	if kind == "map" {
		_, counts, _ = s.slots.AvailMap()
	} else {
		_, counts, _ = s.slots.AvailReduce()
	}
	if counts == nil || s.classes == nil {
		return
	}
	wantCounts := make([]int, s.classes.Num())
	for _, n := range want {
		wantCounts[s.classes.Of(n)]++
	}
	if len(counts) != len(wantCounts) {
		drift("%s avail has %d classes, topology %d", kind, len(counts), len(wantCounts))
		return
	}
	for c := range counts {
		if counts[c] != wantCounts[c] {
			drift("%s avail class %d count %d, recomputed %d", kind, c, counts[c], wantCounts[c])
		}
	}
}

// AuditorConfig tunes StartAuditor.
type AuditorConfig struct {
	// Interval paces the background audits (default 1s).
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

// StartAuditor runs Audit in a background goroutine at the configured
// interval, reporting through the configured sinks, until the returned
// stop function is called (stop blocks until the goroutine exits; it is
// safe to call once). Audits serialize with delta writers and deciders
// through the service lock, so the auditor is race-free against both.
func (s *Service) StartAuditor(cfg AuditorConfig) (stop func()) {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
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
