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

// freeBefore snapshots the node's availability in both slot kinds; paired
// with noteChange around every mutation.
func (n *Node) freeBefore() (free [2]bool) {
	for k := job.MapKind; k <= job.ReduceKind; k++ {
		free[k] = n.FreeSlots(k) > 0
	}
	return free
}

// noteChange compares the node's availability against the pre-mutation
// snapshot and tells the State about 0↔free transitions, keeping the
// avail sets and their per-rack counts exact without per-offer rescans.
func (n *Node) noteChange(was [2]bool) {
	for k := job.MapKind; k <= job.ReduceKind; k++ {
		if f := n.FreeSlots(k) > 0; f != was[k] {
			n.st.avail[k].flip(n.ID, f)
		}
	}
}

// SetOffline marks the node dead (failure injection): it stops offering
// slots. Slot bookkeeping of already-killed tasks must be released before
// going offline.
func (n *Node) SetOffline(off bool) {
	was := n.freeBefore()
	n.offline = off
	n.noteChange(was)
}

// Offline reports whether the node is dead.
func (n *Node) Offline() bool { return n.offline }

// SetBlacklisted marks the node as a repeat offender: it stops offering
// slots (and so drops out of the scheduler's candidate sets) but, unlike
// an offline node, keeps running its already-launched tasks — Hadoop's
// per-job TaskTracker blacklist behaviour.
func (n *Node) SetBlacklisted(b bool) {
	was := n.freeBefore()
	n.blacklisted = b
	n.noteChange(was)
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

// AcquireSlot occupies a kind-k slot; it fails when none is free.
func (n *Node) AcquireSlot(k job.TaskKind) error {
	was := n.freeBefore()
	if n.used[k] >= n.Slots[k] {
		return fmt.Errorf("cluster: node %d has no free %s slot", n.ID, k)
	}
	n.used[k]++
	n.st.used[k]++
	n.noteChange(was)
	return nil
}

// ReleaseSlot frees a kind-k slot; releasing an unheld
// slot panics (it is always an engine bug).
func (n *Node) ReleaseSlot(k job.TaskKind) {
	if n.used[k] <= 0 {
		panic(fmt.Sprintf("cluster: node %d released an unheld %s slot", n.ID, k))
	}
	was := n.freeBefore()
	n.used[k]--
	n.st.used[k]--
	n.noteChange(was)
}

// availState tracks one slot kind's availability set incrementally: a
// monotonically increasing version (bumped on every membership change, so
// downstream caches get an O(1) identity check), optional per-rack member
// counts, and a lazily rebuilt ID-ordered snapshot slice with a copy of
// the counts beside it. The cache and published slices are handed out to
// readers and stay immutable once published: only the //lint:publish
// rebuild/recount sites below may write here.
//
//lint:immutable-after-publish
type availState struct {
	version   uint64
	dirty     bool
	cache     []topology.NodeID
	published []int // counts as of the last rebuild; never written after

	racks  *topology.Cluster
	counts []int // per-rack free-node counts; nil until CountRacks
}

// flip records that node id entered (free=true) or left the availability
// set. O(1): the snapshot slice is only rebuilt when next requested.
//
//lint:publish availState
func (a *availState) flip(id topology.NodeID, free bool) {
	a.version++
	a.dirty = true
	if a.counts != nil {
		if free {
			a.counts[a.racks.Rack(id)]++
		} else {
			a.counts[a.racks.Rack(id)]--
		}
	}
}

// snapshot returns the ID-ordered availability slice, rebuilding it and
// republishing the counts only after membership changed or racks were
// counted.
// Fresh slices are allocated per rebuild so snapshots held by earlier
// scheduler contexts stay immutable.
//
//lint:publish availState
func (a *availState) snapshot(nodes []*Node, k job.TaskKind) []topology.NodeID {
	if a.cache == nil || a.dirty {
		out := make([]topology.NodeID, 0, len(nodes))
		for _, n := range nodes {
			if n.FreeSlots(k) > 0 {
				out = append(out, n.ID)
			}
		}
		a.cache = out
		a.published = append([]int(nil), a.counts...)
		a.dirty = false
	}
	return a.cache
}

// countRacks installs the rack structure and counts free nodes per rack
// from scratch; membership itself is unchanged but the version bumps and
// the state turns dirty so the next snapshot publishes the counts.
//
//lint:publish availState
func (a *availState) countRacks(c *topology.Cluster, nodes []*Node, k job.TaskKind) {
	a.racks = c
	a.counts = make([]int, c.Racks())
	a.version++
	a.dirty = true
	for _, n := range nodes {
		if n.FreeSlots(k) > 0 {
			a.counts[c.Rack(n.ID)]++
		}
	}
}

// State is the slot state of the whole cluster.
type State struct {
	nodes []*Node
	avail [2]availState // indexed by job.TaskKind

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
	// Versions start at 1, so the cost caches keyed on them use 0 for
	// "never filled".
	s := &State{
		avail: [2]availState{{version: 1}, {version: 1}},
		total: [2]int{n * mapSlots, n * reduceSlots},
	}
	s.nodes = make([]*Node, n)
	for i := range s.nodes {
		s.nodes[i] = &Node{ID: topology.NodeID(i), Slots: [2]int{mapSlots, reduceSlots}, st: s}
	}
	return s, nil
}

// Size returns the node count.
func (s *State) Size() int { return len(s.nodes) }

// Node returns the node with the given ID.
func (s *State) Node(id topology.NodeID) *Node { return s.nodes[id] }

// CountRacks makes the availability sets also maintain per-rack
// free-node counts of topology c (the O(1) inputs of the rack-collapsed
// Formula 4/5 sums).
func (s *State) CountRacks(c *topology.Cluster) {
	for k := job.MapKind; k <= job.ReduceKind; k++ {
		s.avail[k].countRacks(c, s.nodes, k)
	}
}

// AvailNodes returns the IDs of nodes with at least one free kind-k slot
// (the N_m set of Formula 4 for maps, N_r of Formula 5 for reduces), in
// ID order for determinism. The slice is cached between membership
// changes; callers must not mutate it.
func (s *State) AvailNodes(k job.TaskKind) []topology.NodeID {
	return s.avail[k].snapshot(s.nodes, k)
}

// Avail returns the kind-k availability set plus its per-rack counts
// (nil before CountRacks) and identity version. The counts are the copy
// published with the node slice, once per version: flip mutates the live
// array in place, and snapshots must stay immutable. Callers must not
// mutate either slice.
func (s *State) Avail(k job.TaskKind) (nodes []topology.NodeID, counts []int, version uint64) {
	nodes = s.avail[k].snapshot(s.nodes, k)
	return nodes, s.avail[k].published, s.avail[k].version
}

// Versions returns both availability sets' identity versions without
// materializing the snapshots — the O(1) consistency probe the placement
// service's torn-read assertion uses.
func (s *State) Versions() (mapVersion, reduceVersion uint64) {
	return s.avail[job.MapKind].version, s.avail[job.ReduceKind].version
}

// UsedSlots returns the cluster-wide occupied map and reduce slot counts.
func (s *State) UsedSlots() (maps, reduces int) { return s.used[job.MapKind], s.used[job.ReduceKind] }

// TotalSlots returns the cluster-wide slot capacities.
func (s *State) TotalSlots() (maps, reduces int) {
	return s.total[job.MapKind], s.total[job.ReduceKind]
}
