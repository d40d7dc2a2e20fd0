// Package cluster models the slot-based resource state of a Hadoop 1.x
// cluster: each node exposes a fixed number of map and reduce computing
// slots, acquired when a task launches and released at completion. All
// per-kind state — slot counts, availability sets, cluster-wide totals —
// is indexed by job.TaskKind, so each operation is written once for both
// kinds.
package cluster

import (
	"fmt"

	"mapsched/internal/job"
	"mapsched/internal/topology"
)

// Node is the slot state of one TaskTracker: Hadoop 1.x fixed map and
// reduce slots, the paper's testbed. Per-kind state is indexed by
// job.TaskKind, so every slot operation has one code path for both kinds.
type Node struct {
	ID topology.NodeID
	// Slots are the node's fixed slot counts per task kind, set at New;
	// State.TotalSlots keeps their sums.
	Slots [2]int

	used        [2]int
	offline     bool
	blacklisted bool

	// st points back to the owning State so slot transitions keep the
	// cluster-wide availability sets and slot totals incremental.
	st *State
}

// noteChange applies the node's 0↔free transitions to the State's avail
// sets, which hold its membership from before the mutation, keeping them
// exact without per-offer rescans.
func (n *Node) noteChange() {
	for k := job.MapKind; k <= job.ReduceKind; k++ {
		if f := n.FreeSlots(k) > 0; f != n.st.avail[k].Has(n.ID) {
			n.st.avail[k] = n.st.avail[k].With(n.ID, f)
			n.st.version[k]++
		}
	}
}

// SetOffline marks the node dead (failure injection): it stops offering
// slots. Slot bookkeeping of already-killed tasks must be released before
// going offline.
func (n *Node) SetOffline(off bool) {
	n.offline = off
	n.noteChange()
}

// Offline reports whether the node is dead.
func (n *Node) Offline() bool { return n.offline }

// SetBlacklisted marks the node as a repeat offender: it stops offering
// slots (and so drops out of the scheduler's candidate sets) but, unlike
// an offline node, keeps running its already-launched tasks — Hadoop's
// per-job TaskTracker blacklist behaviour.
func (n *Node) SetBlacklisted(b bool) {
	n.blacklisted = b
	n.noteChange()
}

// Blacklisted reports whether the node is blacklisted.
func (n *Node) Blacklisted() bool { return n.blacklisted }

// FreeSlots returns how many more kind-k tasks the node can start right
// now (0 when offline or blacklisted).
func (n *Node) FreeSlots(k job.TaskKind) int {
	if n.offline || n.blacklisted {
		return 0
	}
	return n.Slots[k] - n.used[k]
}

// UsedSlots returns the number of occupied kind-k slots.
func (n *Node) UsedSlots(k job.TaskKind) int { return n.used[k] }

// AcquireSlot occupies a kind-k slot; it fails when none is free, as on
// an offline or blacklisted node.
func (n *Node) AcquireSlot(k job.TaskKind) error {
	if n.FreeSlots(k) <= 0 {
		return fmt.Errorf("cluster: node %d has no free %s slot", n.ID, k)
	}
	n.used[k]++
	n.st.used[k]++
	n.noteChange()
	return nil
}

// ReleaseSlot frees a kind-k slot; releasing an unheld
// slot panics (it is always an engine bug).
func (n *Node) ReleaseSlot(k job.TaskKind) {
	if n.used[k] <= 0 {
		panic(fmt.Sprintf("cluster: node %d released an unheld %s slot", n.ID, k))
	}
	n.used[k]--
	n.st.used[k]--
	n.noteChange()
}

// State is the slot state of the whole cluster.
type State struct {
	nodes []*Node

	// avail[k] is the set of nodes with a free kind-k slot, replaced by
	// a copy on every membership change, which also bumps version[k]
	// (from 1, so caches keyed on it use 0 for "never filled").
	avail   [2]topology.NodeSet
	version [2]uint64

	// Cluster-wide occupied and capacity slot totals per kind: used is
	// kept by the nodes' AcquireSlot/ReleaseSlot, total is fixed at New,
	// so the utilization sample taken on every slot transition is O(1).
	used, total [2]int
}

// New creates a cluster of n nodes with uniform slot counts.
func New(n, mapSlots, reduceSlots int) (*State, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: %d nodes, need >= 1", n)
	}
	if mapSlots < 0 || reduceSlots < 0 {
		return nil, fmt.Errorf("cluster: negative slot counts")
	}
	s := &State{
		version: [2]uint64{1, 1},
		total:   [2]int{n * mapSlots, n * reduceSlots},
	}
	s.nodes = make([]*Node, n)
	for i := range s.nodes {
		s.nodes[i] = &Node{ID: topology.NodeID(i), Slots: [2]int{mapSlots, reduceSlots}, st: s}
	}
	for k, slots := range [2]int{mapSlots, reduceSlots} {
		if slots > 0 {
			s.avail[k] = topology.AllNodes(n)
		}
	}
	return s, nil
}

// Size returns the node count.
func (s *State) Size() int { return len(s.nodes) }

// Node returns the node with the given ID.
func (s *State) Node(id topology.NodeID) *Node { return s.nodes[id] }

// Avail returns the set of nodes with at least one free kind-k slot
// (the N_m set of Formula 4 for maps, N_r of Formula 5 for reduces) and
// its identity version.
func (s *State) Avail(k job.TaskKind) (topology.NodeSet, uint64) {
	return s.avail[k], s.version[k]
}

// UsedSlots returns the cluster-wide occupied map and reduce slot counts.
func (s *State) UsedSlots() (maps, reduces int) { return s.used[job.MapKind], s.used[job.ReduceKind] }

// TotalSlots returns the cluster-wide slot capacities.
func (s *State) TotalSlots() (maps, reduces int) {
	return s.total[job.MapKind], s.total[job.ReduceKind]
}
