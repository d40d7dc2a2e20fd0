// Invariant audit: rebuild the service's derived state — availability
// membership, store usage — from scratch and
// diff it against the incrementally maintained state. The runtime
// analogue of the schedlint epoch contracts: the static analyzers prove
// mutation sites bump the right epochs, the audit proves the incremental
// bookkeeping still equals ground truth while the service runs.
package placement

import (
	"fmt"
	"math"
	"strings"

	"mapsched/internal/hdfs"
	"mapsched/internal/job"
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
// availability-set membership and size, replica-set validity, store
// usage statistics and link factors. It is synchronous
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

	// 1. Slot usage within capacity on every node.
	r.Checks++
	for i := 0; i < size; i++ {
		n := s.slots.Node(topology.NodeID(i))
		for k := job.MapKind; k <= job.ReduceKind; k++ {
			if u := n.UsedSlots(k); u < 0 || u > n.Slots[k] {
				drift("node %d: used %s slots %d outside [0,%d]", i, k, u, n.Slots[k])
			}
		}
	}

	// 2+3. Availability membership and member count, rebuilt from
	// per-node free-slot ground truth.
	r.Checks += 2
	for k := job.MapKind; k <= job.ReduceKind; k++ {
		s.auditAvailLocked(k, drift)
	}

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

// auditAvailLocked checks kind k's availability set — every node's bit
// and the member count — against a FreeSlots rescan. Caller holds the
// write lock.
func (s *Service) auditAvailLocked(k job.TaskKind, drift func(string, ...any)) {
	set, _ := s.slots.Avail(k)
	free := 0
	for i := 0; i < s.slots.Size(); i++ {
		n := topology.NodeID(i)
		want := s.slots.Node(n).FreeSlots(k) > 0
		if set.Has(n) != want {
			drift("%s avail has node %d = %v, recomputed %v", k, i, !want, want)
		}
		if want {
			free++
		}
	}
	if set.Len() != free {
		drift("%s avail has %d members, recomputed %d", k, set.Len(), free)
	}
}
