// Package placement is the standalone network-aware task placement
// decision service: the paper's probabilistic placement rule (Formulas
// 1–5, Algorithms 1–2) served over an explicit cluster state, with no
// dependency on the discrete-event engine.
//
// The package splits the decision problem into two halves:
//
//   - Service owns the shared scheduler-visible state — the network,
//     the replicated block store, the slot state with its Avail
//     snapshots and per-rack counts — behind a
//     writer-applies-deltas / concurrent-readers-decide contract: the
//     Apply* methods mutate under the write lock (bumping a delta
//     epoch and eagerly rematerializing the availability snapshots),
//     while decisions run under the read lock.
//   - Decider is one client's decision session: it carries the
//     per-client cost caches (MapCoster rows, reduce costers), the
//     client's RNG for the Bernoulli gate, and the observer stream
//     the decision breakdown is emitted to. A Decider is not safe for
//     concurrent use — concurrent readers each hold their own — but
//     any number of Deciders may decide concurrently against one
//     Service, safe under the race detector.
//
// The simulation engine is the first client: its schedulers route
// AssignMap/AssignReduce through a Decider over a Service wrapping the
// engine's live objects, producing bit-identical decision streams, and
// the engine applies every slot, node-health, link and replica change
// as a delta. Standalone clients — the root package's PlacementService
// façade, and through it the recorded-stream replay — build their own
// Service the same way, proving the engine-free path computes the exact
// same numbers. Whoever the client, the delta methods are the one
// mutation path: each change is validated, journaled and counted in the
// epoch.
//
// Map and reduce slots follow one rule stated twice in the paper
// (Algorithm 1 / Formula 4 over N_m, Algorithm 2 / Formula 5 over N_r),
// so slot deltas, job ordering and the audit take a job.TaskKind and run
// one code path for both kinds.
package placement

import (
	"fmt"
	"math"
	"sync"

	"mapsched/internal/cluster"
	"mapsched/internal/core"
	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/topology"
)

// Deps are the state objects a Service is built over. Once the Service
// is built, callers change them only through its delta methods.
type Deps struct {
	// Net is the cluster topology: it resolves node distances (and racks
	// for locality tagging) and carries the host links ApplyLinkFactor
	// rescales.
	Net *topology.Cluster
	// Store is the replicated block store map costs read from.
	Store *hdfs.Store
	// Rate observes path rates; required for ModeNetworkCondition.
	Rate topology.RateObserver
	// Slots is the cluster slot state whose availability sets form the
	// N_m / N_r of Formulas 4–5.
	Slots *cluster.State
	// Mode selects hop-count or network-condition distances.
	Mode core.Mode
}

// Service is the shared half of the placement decision service. All
// exported methods are safe for concurrent use; see the package
// comment for the writer/reader contract.
//
// Every Apply* delta method journals before it mutates; the
// deltajournal analyzer enforces the pairing.
//
//lint:journaled
type Service struct {
	mu sync.RWMutex

	// net, rate and mode are set once in NewService and never written
	// again, so they are safe to read without the lock.
	net  *topology.Cluster
	rate topology.RateObserver
	mode core.Mode

	// store and slots are the mutable scheduler-visible state the
	// writer/reader contract exists for: deltas rewrite them under the
	// write lock, decisions read them under the read lock.
	//
	//lint:guarded mu
	store *hdfs.Store
	//lint:guarded mu
	slots *cluster.State

	// epoch counts deltas applied through the Service. Deciders record
	// the value they observed so clients can order decisions against
	// state updates.
	//
	//lint:guarded mu
	epoch uint64

	// journal, when attached via StartJournal, records every delta
	// before it applies (see journal.go).
	//
	//lint:guarded mu
	journal *journalWriter

	// linkFactors tracks the current host-link scale factor per node
	// (nil until the first ApplyLinkFactor) so checkpoints can capture
	// non-nominal links.
	//
	//lint:guarded mu
	linkFactors []float64
}

// NewService builds a decision service over the given state. In hop mode
// the slot state counts free nodes per rack, so its availability
// snapshots carry the per-rack counts the collapsed cost sums consume.
//
//lint:allow lockheld constructor: s is unpublished, no reader can exist before return
func NewService(d Deps) (*Service, error) {
	if d.Net == nil || d.Slots == nil {
		return nil, fmt.Errorf("placement: nil network or slot state")
	}
	// Validates the net/store/rate/mode combination; Deciders build
	// their own models from the same inputs.
	if _, err := core.NewCostModel(d.Net, d.Store, d.Rate, d.Mode); err != nil {
		return nil, err
	}
	if d.Net.Size() != d.Slots.Size() {
		return nil, fmt.Errorf("placement: network has %d nodes, slot state %d", d.Net.Size(), d.Slots.Size())
	}
	s := &Service{
		net:   d.Net,
		store: d.Store,
		rate:  d.Rate,
		slots: d.Slots,
		mode:  d.Mode,
	}
	if d.Mode == core.ModeHops {
		s.slots.CountRacks(d.Net)
	}
	s.refreshLocked()
	return s, nil
}

// refreshLocked rematerializes the availability snapshot slices so
// readers never trigger the slot state's lazy rebuild (a write) under
// the read lock. Callers hold the write lock (or own the Service
// exclusively, as in NewService).
func (s *Service) refreshLocked() {
	for k := job.MapKind; k <= job.ReduceKind; k++ {
		s.slots.AvailNodes(k)
	}
}

// appliedLocked finishes a delta under the write lock: rematerialize
// snapshots, bump the epoch.
func (s *Service) appliedLocked() {
	s.refreshLocked()
	s.epoch++
}

// Epoch returns the number of deltas applied through the Service.
func (s *Service) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// View is a consistent read of the service's availability state. Views
// are handed to concurrent readers by value, and the Avail node/count
// slices alias the published snapshots — once built, a View is never
// written again.
//
//lint:immutable-after-publish
type View struct {
	AvailMap    core.Avail
	AvailReduce core.Avail
	Epoch       uint64
}

// Snapshot returns the current availability sets with their per-rack
// counts and identity versions, plus the delta epoch, read atomically
// under the read lock. The node slices are copy-on-write (the slot
// state allocates a fresh slice per membership change), so a returned
// View stays internally consistent even as later deltas apply.
func (s *Service) Snapshot() View {
	s.mu.RLock()
	defer s.mu.RUnlock()
	am, amCounts, amVer := s.slots.Avail(job.MapKind)
	ar, arCounts, arVer := s.slots.Avail(job.ReduceKind)
	return View{
		AvailMap:    core.Avail{Nodes: am, Counts: amCounts, Version: amVer},
		AvailReduce: core.Avail{Nodes: ar, Counts: arCounts, Version: arVer},
		Epoch:       s.epoch,
	}
}

// MapSlot and ReduceSlot name the task kinds as slot deltas take them.
// They are kept only because the benchmark's decide workload
// (cmd/mrbench) names placement.MapSlot; new code passes job.MapKind and
// job.ReduceKind.
const MapSlot, ReduceSlot = job.MapKind, job.ReduceKind

// nodeLocked resolves a delta's node ID against the cluster, rejecting
// IDs outside it. Caller holds the write lock.
func (s *Service) nodeLocked(n topology.NodeID) (*cluster.Node, error) {
	if int(n) < 0 || int(n) >= s.slots.Size() {
		return nil, fmt.Errorf("%w: node %d of %d", ErrUnknownNode, n, s.slots.Size())
	}
	return s.slots.Node(n), nil
}

// blockLocked validates a delta's block ID against the store.
func (s *Service) blockLocked(id hdfs.BlockID) error {
	if int(id) < 0 || int(id) >= s.store.NumBlocks() {
		return fmt.Errorf("%w: block %d of %d", ErrUnknownBlock, id, s.store.NumBlocks())
	}
	return nil
}

// ApplySlotAcquire records that a task occupied a slot of the given
// kind on node n (a placement decision was committed). The delta is
// validated against current state first: an unknown node, an offline or
// blacklisted node, or a node with no free slot of the kind rejects it
// with a typed ErrDeltaConflict error and no state change.
func (s *Service) ApplySlotAcquire(k job.TaskKind, n topology.NodeID) error {
	return s.ApplySlotAcquireNoted(k, n, "", nil, nil)
}

// ApplySlotAcquireNoted is ApplySlotAcquire with a journal annotation
// and client hooks, all under one write lock (one delta, one epoch):
// after the service-level validation passes, pre (if non-nil) may
// reject the delta with client-level validation; note is recorded in
// the journal and surfaced by Recover; fn (if non-nil) runs after the
// slot is acquired to mutate client-owned state (task lifecycles).
func (s *Service) ApplySlotAcquireNoted(k job.TaskKind, n topology.NodeID, note string, pre func() error, fn func()) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	node, err := s.nodeLocked(n)
	if err != nil {
		return err
	}
	if node.Offline() || node.Blacklisted() {
		return fmt.Errorf("%w: acquire on node %d", ErrNodeUnavailable, n)
	}
	if node.FreeSlots(k) <= 0 {
		return fmt.Errorf("%w: %s acquire on node %d", ErrNoFreeSlot, k, n)
	}
	if pre != nil {
		if err := pre(); err != nil {
			return err
		}
	}
	if err := s.journalLocked(Record{Op: OpAcquire, Kind: k.String(), Node: int(n), Note: note}); err != nil {
		return err
	}
	// Validation above guarantees the acquire succeeds, so the journal
	// record written first cannot end up describing a rejected delta.
	if err := node.AcquireSlot(k); err != nil {
		return fmt.Errorf("%w: %v", ErrNoFreeSlot, err)
	}
	if fn != nil {
		fn()
	}
	s.appliedLocked()
	return nil
}

// ApplySlotRelease records that a task freed a slot of the given kind
// on node n (it finished or was killed). A release without a matching
// acquire is rejected with ErrSlotNotHeld (it used to panic deep in the
// cluster state).
func (s *Service) ApplySlotRelease(k job.TaskKind, n topology.NodeID) error {
	return s.ApplySlotReleaseNoted(k, n, "", nil, nil)
}

// ApplySlotReleaseNoted is ApplySlotRelease with a journal annotation
// and client hooks; see ApplySlotAcquireNoted for the contract.
func (s *Service) ApplySlotReleaseNoted(k job.TaskKind, n topology.NodeID, note string, pre func() error, fn func()) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	node, err := s.nodeLocked(n)
	if err != nil {
		return err
	}
	if node.UsedSlots(k) <= 0 {
		return fmt.Errorf("%w: %s release on node %d", ErrSlotNotHeld, k, n)
	}
	if pre != nil {
		if err := pre(); err != nil {
			return err
		}
	}
	if err := s.journalLocked(Record{Op: OpRelease, Kind: k.String(), Node: int(n), Note: note}); err != nil {
		return err
	}
	node.ReleaseSlot(k)
	if fn != nil {
		fn()
	}
	s.appliedLocked()
	return nil
}

// ApplyReplicaAdd records a new replica of block id on node n (e.g. a
// re-replication finishing). Reports whether the replica set changed —
// adding a replica the node already holds is a no-op, not a conflict.
// Unknown nodes and blocks are rejected.
func (s *Service) ApplyReplicaAdd(id hdfs.BlockID, n topology.NodeID) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.nodeLocked(n); err != nil {
		return false, err
	}
	if err := s.blockLocked(id); err != nil {
		return false, err
	}
	if s.store.HasReplica(id, n) {
		return false, nil
	}
	if err := s.journalLocked(Record{Op: OpReplicaAdd, Block: int(id), Node: int(n)}); err != nil {
		return false, err
	}
	s.store.AddReplica(id, n)
	s.appliedLocked()
	return true, nil
}

// ApplyReplicaLoss records the loss of block id's replica on node n
// (disk failure, decommission). Reports whether a replica was removed —
// losing a replica the node does not hold is a no-op. Unknown nodes and
// blocks are rejected.
func (s *Service) ApplyReplicaLoss(id hdfs.BlockID, n topology.NodeID) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.nodeLocked(n); err != nil {
		return false, err
	}
	if err := s.blockLocked(id); err != nil {
		return false, err
	}
	if !s.store.HasReplica(id, n) {
		return false, nil
	}
	if err := s.journalLocked(Record{Op: OpReplicaLoss, Block: int(id), Node: int(n)}); err != nil {
		return false, err
	}
	s.store.RemoveReplica(id, n)
	s.appliedLocked()
	return true, nil
}

// ApplyNodeReplicaLoss drops every replica hosted on node n (the node
// died with its disks). Returns the number of replicas removed; zero
// removals still count as one applied delta, matching the journal.
func (s *Service) ApplyNodeReplicaLoss(n topology.NodeID) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.nodeLocked(n); err != nil {
		return 0, err
	}
	if err := s.journalLocked(Record{Op: OpNodeReplicaLoss, Node: int(n)}); err != nil {
		return 0, err
	}
	removed := s.store.RemoveNodeReplicas(n)
	s.appliedLocked()
	return removed, nil
}

// ApplyNodeOffline marks node n dead (true) or revived (false): an
// offline node offers no slots and drops out of the Avail sets.
// Setting the flag to its current value is idempotent but still counts
// as an applied delta.
func (s *Service) ApplyNodeOffline(n topology.NodeID, off bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	node, err := s.nodeLocked(n)
	if err != nil {
		return err
	}
	if err := s.journalLocked(Record{Op: OpOffline, Node: int(n), On: off}); err != nil {
		return err
	}
	node.SetOffline(off)
	s.appliedLocked()
	return nil
}

// ApplyNodeBlacklist marks node n blacklisted (no new tasks, running
// ones keep their slots) or clears the mark.
func (s *Service) ApplyNodeBlacklist(n topology.NodeID, b bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	node, err := s.nodeLocked(n)
	if err != nil {
		return err
	}
	if err := s.journalLocked(Record{Op: OpBlacklist, Node: int(n), On: b}); err != nil {
		return err
	}
	node.SetBlacklisted(b)
	s.appliedLocked()
	return nil
}

// ApplyLinkFactor rescales node n's host access link capacity by
// factor (1 restores nominal, 0 severs); network-condition costs see
// the change through the rate observer. Unknown nodes and non-finite or
// negative factors are rejected.
func (s *Service) ApplyLinkFactor(n topology.NodeID, factor float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.nodeLocked(n); err != nil {
		return err
	}
	if badLinkFactor(factor) {
		return fmt.Errorf("%w: %v", ErrBadLinkFactor, factor)
	}
	if err := s.journalLocked(Record{Op: OpLinkFactor, Node: int(n), F: factor}); err != nil {
		return err
	}
	s.net.SetHostLinkFactor(n, factor)
	if s.linkFactors == nil {
		s.linkFactors = make([]float64, s.slots.Size())
		for i := range s.linkFactors {
			s.linkFactors[i] = 1
		}
	}
	s.linkFactors[n] = factor
	s.appliedLocked()
	return nil
}

// badLinkFactor reports a link factor no delta or checkpoint may set:
// non-finite or negative.
func badLinkFactor(f float64) bool {
	return math.IsNaN(f) || math.IsInf(f, 0) || f < 0
}
