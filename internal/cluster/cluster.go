// Package cluster models the slot-based resource state of a Hadoop 1.x
// cluster: each node exposes a fixed number of map and reduce computing
// slots, acquired when a task launches and released at completion.
package cluster

import (
	"fmt"

	"mapsched/internal/topology"
)

// Resources is a YARN-style capacity vector.
type Resources struct {
	MemMB  int
	VCores int
}

// fits reports whether adding req to used stays within cap.
func fits(used, req, cap Resources) bool {
	return used.MemMB+req.MemMB <= cap.MemMB && used.VCores+req.VCores <= cap.VCores
}

// headroom returns how many req-sized containers fit into cap−used.
func headroom(used, req, cap Resources) int {
	if req.MemMB <= 0 || req.VCores <= 0 {
		return 0
	}
	m := (cap.MemMB - used.MemMB) / req.MemMB
	v := (cap.VCores - used.VCores) / req.VCores
	if v < m {
		m = v
	}
	if m < 0 {
		m = 0
	}
	return m
}

// Node is the slot state of one TaskTracker. It operates in one of two
// modes: Hadoop 1.x fixed slots (the paper's testbed), or a YARN-style
// container model where map and reduce tasks request resource vectors
// from a shared node capacity (the paper's Section V future work).
type Node struct {
	ID          topology.NodeID
	MapSlots    int
	ReduceSlots int

	usedMap     int
	usedReduce  int
	offline     bool
	blacklisted bool

	resourceMode      bool
	capacity          Resources
	used              Resources
	mapReq, reduceReq Resources

	// st points back to the owning State so slot transitions keep the
	// cluster-wide availability sets incremental; nil for bare Node values
	// built outside New (unit tests), which then behave as before.
	st *State
}

// freeBefore snapshots the node's availability in both slot kinds; paired
// with noteChange around every mutation.
func (n *Node) freeBefore() (mapFree, reduceFree bool) {
	return n.FreeMapSlots() > 0, n.FreeReduceSlots() > 0
}

// noteChange compares the node's availability against the pre-mutation
// snapshot and tells the State about 0↔free transitions, keeping the
// avail sets and their per-class counts exact without per-offer rescans.
func (n *Node) noteChange(mapWasFree, reduceWasFree bool) {
	if n.st == nil {
		return
	}
	if f := n.FreeMapSlots() > 0; f != mapWasFree {
		n.st.availMap.flip(n.ID, f)
	}
	if f := n.FreeReduceSlots() > 0; f != reduceWasFree {
		n.st.availReduce.flip(n.ID, f)
	}
}

// SetOffline marks the node dead (failure injection): it stops offering
// slots. Slot bookkeeping of already-killed tasks must be released before
// going offline.
func (n *Node) SetOffline(off bool) {
	bm, br := n.freeBefore()
	n.offline = off
	n.noteChange(bm, br)
}

// Offline reports whether the node is dead.
func (n *Node) Offline() bool { return n.offline }

// SetBlacklisted marks the node as a repeat offender: it stops offering
// slots (and so drops out of the scheduler's candidate sets) but, unlike
// an offline node, keeps running its already-launched tasks — Hadoop's
// per-job TaskTracker blacklist behaviour.
func (n *Node) SetBlacklisted(b bool) {
	bm, br := n.freeBefore()
	n.blacklisted = b
	n.noteChange(bm, br)
}

// Blacklisted reports whether the node is blacklisted.
func (n *Node) Blacklisted() bool { return n.blacklisted }

// EnableResources switches the node to the container model with the given
// capacity and per-task requests.
func (n *Node) EnableResources(capacity, mapReq, reduceReq Resources) error {
	if capacity.MemMB <= 0 || capacity.VCores <= 0 {
		return fmt.Errorf("cluster: node %d: capacity must be positive", n.ID)
	}
	if mapReq.MemMB <= 0 || mapReq.VCores <= 0 || reduceReq.MemMB <= 0 || reduceReq.VCores <= 0 {
		return fmt.Errorf("cluster: node %d: container requests must be positive", n.ID)
	}
	if n.usedMap != 0 || n.usedReduce != 0 {
		return fmt.Errorf("cluster: node %d: cannot switch modes with tasks running", n.ID)
	}
	bm, br := n.freeBefore()
	n.resourceMode = true
	n.capacity = capacity
	n.mapReq = mapReq
	n.reduceReq = reduceReq
	n.noteChange(bm, br)
	return nil
}

// ResourceMode reports whether the node uses the container model.
func (n *Node) ResourceMode() bool { return n.resourceMode }

// Used returns the consumed resources (container mode only).
func (n *Node) Used() Resources { return n.used }

// FreeMapSlots returns how many more map tasks the node can start right
// now (0 when offline or blacklisted). In container mode this is the
// resource headroom measured in map containers.
func (n *Node) FreeMapSlots() int {
	if n.offline || n.blacklisted {
		return 0
	}
	if n.resourceMode {
		return headroom(n.used, n.mapReq, n.capacity)
	}
	return n.MapSlots - n.usedMap
}

// FreeReduceSlots returns how many more reduce tasks the node can start
// right now (0 when offline or blacklisted).
func (n *Node) FreeReduceSlots() int {
	if n.offline || n.blacklisted {
		return 0
	}
	if n.resourceMode {
		return headroom(n.used, n.reduceReq, n.capacity)
	}
	return n.ReduceSlots - n.usedReduce
}

// UsedMapSlots returns the number of occupied map slots.
func (n *Node) UsedMapSlots() int { return n.usedMap }

// UsedReduceSlots returns the number of occupied reduce slots.
func (n *Node) UsedReduceSlots() int { return n.usedReduce }

// AcquireMap occupies a map slot (or container); it fails when none fits.
func (n *Node) AcquireMap() error {
	bm, br := n.freeBefore()
	if n.resourceMode {
		if !fits(n.used, n.mapReq, n.capacity) {
			return fmt.Errorf("cluster: node %d has no room for a map container", n.ID)
		}
		n.used.MemMB += n.mapReq.MemMB
		n.used.VCores += n.mapReq.VCores
		n.usedMap++
		n.noteChange(bm, br)
		return nil
	}
	if n.usedMap >= n.MapSlots {
		return fmt.Errorf("cluster: node %d has no free map slot", n.ID)
	}
	n.usedMap++
	n.noteChange(bm, br)
	return nil
}

// ReleaseMap frees a map slot; releasing an unheld slot panics (it is
// always an engine bug).
func (n *Node) ReleaseMap() {
	if n.usedMap <= 0 {
		panic(fmt.Sprintf("cluster: node %d released an unheld map slot", n.ID))
	}
	bm, br := n.freeBefore()
	n.usedMap--
	if n.resourceMode {
		n.used.MemMB -= n.mapReq.MemMB
		n.used.VCores -= n.mapReq.VCores
	}
	n.noteChange(bm, br)
}

// AcquireReduce occupies a reduce slot (or container).
func (n *Node) AcquireReduce() error {
	bm, br := n.freeBefore()
	if n.resourceMode {
		if !fits(n.used, n.reduceReq, n.capacity) {
			return fmt.Errorf("cluster: node %d has no room for a reduce container", n.ID)
		}
		n.used.MemMB += n.reduceReq.MemMB
		n.used.VCores += n.reduceReq.VCores
		n.usedReduce++
		n.noteChange(bm, br)
		return nil
	}
	if n.usedReduce >= n.ReduceSlots {
		return fmt.Errorf("cluster: node %d has no free reduce slot", n.ID)
	}
	n.usedReduce++
	n.noteChange(bm, br)
	return nil
}

// ReleaseReduce frees a reduce slot (or container).
func (n *Node) ReleaseReduce() {
	if n.usedReduce <= 0 {
		panic(fmt.Sprintf("cluster: node %d released an unheld reduce slot", n.ID))
	}
	bm, br := n.freeBefore()
	n.usedReduce--
	if n.resourceMode {
		n.used.MemMB -= n.reduceReq.MemMB
		n.used.VCores -= n.reduceReq.VCores
	}
	n.noteChange(bm, br)
}

// availState tracks one slot kind's availability set incrementally: a
// monotonically increasing version (bumped on every membership change, so
// downstream caches get an O(1) identity check), optional per-class member
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

	classes *topology.Classes
	counts  []int // per-class free-node counts; nil until SetClasses
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
			a.counts[a.classes.Of(id)]++
		} else {
			a.counts[a.classes.Of(id)]--
		}
	}
}

// snapshot returns the ID-ordered availability slice, rebuilding it and
// republishing the counts only after membership or classes changed.
// Fresh slices are allocated per rebuild so snapshots held by earlier
// scheduler contexts stay immutable.
//
//lint:publish availState
func (a *availState) snapshot(nodes []*Node, free func(*Node) bool) []topology.NodeID {
	if a.cache == nil || a.dirty {
		out := make([]topology.NodeID, 0, len(nodes))
		for _, n := range nodes {
			if free(n) {
				out = append(out, n.ID)
			}
		}
		a.cache = out
		a.published = append([]int(nil), a.counts...)
		a.dirty = false
	}
	return a.cache
}

// setClasses installs (or clears) the class structure and recounts from
// scratch; membership itself is unchanged but the version bumps and the
// state turns dirty so the next snapshot republishes the counts.
//
//lint:publish availState
func (a *availState) setClasses(c *topology.Classes, nodes []*Node, free func(*Node) bool) {
	a.classes = c
	a.counts = nil
	a.version++
	a.dirty = true
	if c == nil {
		return
	}
	a.counts = make([]int, c.Num())
	for _, n := range nodes {
		if free(n) {
			a.counts[c.Of(n.ID)]++
		}
	}
}

// State is the slot state of the whole cluster.
type State struct {
	nodes       []*Node
	availMap    availState
	availReduce availState
}

// New creates a cluster of n nodes with uniform slot counts.
func New(n, mapSlots, reduceSlots int) (*State, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: %d nodes, need >= 1", n)
	}
	if mapSlots < 0 || reduceSlots < 0 {
		return nil, fmt.Errorf("cluster: negative slot counts")
	}
	// Versions start at 1: consumers use 0 as "no identity known".
	s := &State{availMap: availState{version: 1}, availReduce: availState{version: 1}}
	s.nodes = make([]*Node, n)
	for i := range s.nodes {
		s.nodes[i] = &Node{ID: topology.NodeID(i), MapSlots: mapSlots, ReduceSlots: reduceSlots, st: s}
	}
	return s, nil
}

// Size returns the node count.
func (s *State) Size() int { return len(s.nodes) }

// Node returns the node with the given ID.
func (s *State) Node(id topology.NodeID) *Node { return s.nodes[id] }

func freeMap(n *Node) bool    { return n.FreeMapSlots() > 0 }
func freeReduce(n *Node) bool { return n.FreeReduceSlots() > 0 }

// SetClasses installs the topology's distance-class structure so the
// availability sets also maintain per-class free-node counts (the O(1)
// inputs of the class-collapsed Formula 4/5 sums). Pass nil to clear.
func (s *State) SetClasses(c *topology.Classes) {
	s.availMap.setClasses(c, s.nodes, freeMap)
	s.availReduce.setClasses(c, s.nodes, freeReduce)
}

// AvailMapNodes returns the IDs of nodes with at least one free map slot
// (the N_m set of Formula 4), in ID order for determinism. The slice is
// cached between membership changes; callers must not mutate it.
func (s *State) AvailMapNodes() []topology.NodeID {
	return s.availMap.snapshot(s.nodes, freeMap)
}

// AvailReduceNodes returns the IDs of nodes with at least one free reduce
// slot (the N_r set of Formula 5).
func (s *State) AvailReduceNodes() []topology.NodeID {
	return s.availReduce.snapshot(s.nodes, freeReduce)
}

// AvailMap returns the map-slot availability set plus its per-class counts
// (nil before SetClasses) and identity version. The counts are the copy
// published with the node slice, once per version: flip mutates the live
// array in place, and snapshots must stay immutable. Callers must not
// mutate either slice.
func (s *State) AvailMap() (nodes []topology.NodeID, counts []int, version uint64) {
	nodes = s.availMap.snapshot(s.nodes, freeMap)
	return nodes, s.availMap.published, s.availMap.version
}

// AvailReduce returns the reduce-slot availability set plus its per-class
// counts (nil before SetClasses) and identity version, published as for
// AvailMap.
func (s *State) AvailReduce() (nodes []topology.NodeID, counts []int, version uint64) {
	nodes = s.availReduce.snapshot(s.nodes, freeReduce)
	return nodes, s.availReduce.published, s.availReduce.version
}

// Versions returns both availability sets' identity versions without
// materializing the snapshots — the O(1) consistency probe the placement
// service's torn-read assertion uses.
func (s *State) Versions() (mapVersion, reduceVersion uint64) {
	return s.availMap.version, s.availReduce.version
}

// UsedSlots returns the cluster-wide occupied map and reduce slot counts.
func (s *State) UsedSlots() (maps, reduces int) {
	for _, n := range s.nodes {
		maps += n.usedMap
		reduces += n.usedReduce
	}
	return maps, reduces
}

// TotalSlots returns the cluster-wide slot capacities. In container mode
// the capacity is expressed as how many containers of each kind would fit
// an idle cluster.
func (s *State) TotalSlots() (maps, reduces int) {
	for _, n := range s.nodes {
		if n.resourceMode {
			maps += headroom(Resources{}, n.mapReq, n.capacity)
			reduces += headroom(Resources{}, n.reduceReq, n.capacity)
			continue
		}
		maps += n.MapSlots
		reduces += n.ReduceSlots
	}
	return maps, reduces
}

// EnableResources switches every node to the container model.
func (s *State) EnableResources(capacity, mapReq, reduceReq Resources) error {
	for _, n := range s.nodes {
		if err := n.EnableResources(capacity, mapReq, reduceReq); err != nil {
			return err
		}
	}
	return nil
}
