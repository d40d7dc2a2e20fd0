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
	ID topology.NodeID
	// MapSlots and ReduceSlots are the node's fixed slot counts, set at
	// New; State.TotalSlots keeps their sum.
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
	// cluster-wide availability sets and slot totals incremental; nil for
	// bare Node values built outside New (unit tests), which then behave
	// as before.
	st *State
}

// addUsed moves the node's occupied slot counts and, with them, the
// cluster-wide totals UsedSlots reports.
func (n *Node) addUsed(maps, reduces int) {
	n.usedMap += maps
	n.usedReduce += reduces
	if n.st != nil {
		n.st.usedMap += maps
		n.st.usedReduce += reduces
	}
}

// capacitySlots returns the node's slot capacities: its fixed slot
// counts, or in container mode how many containers of each kind fit the
// idle node.
func (n *Node) capacitySlots() (maps, reduces int) {
	if n.resourceMode {
		return headroom(Resources{}, n.mapReq, n.capacity), headroom(Resources{}, n.reduceReq, n.capacity)
	}
	return n.MapSlots, n.ReduceSlots
}

// freeBefore snapshots the node's availability in both slot kinds; paired
// with noteChange around every mutation.
func (n *Node) freeBefore() (mapFree, reduceFree bool) {
	return n.FreeMapSlots() > 0, n.FreeReduceSlots() > 0
}

// noteChange compares the node's availability against the pre-mutation
// snapshot and tells the State about 0↔free transitions, keeping the
// avail sets and their per-rack counts exact without per-offer rescans.
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
	tm, tr := n.capacitySlots()
	n.resourceMode = true
	n.capacity = capacity
	n.mapReq = mapReq
	n.reduceReq = reduceReq
	n.noteChange(bm, br)
	if n.st != nil {
		m, r := n.capacitySlots()
		n.st.totalMap += m - tm
		n.st.totalReduce += r - tr
	}
	return nil
}

// ResourceMode reports whether the node uses the container model.
func (n *Node) ResourceMode() bool { return n.resourceMode }

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
		n.addUsed(1, 0)
		n.noteChange(bm, br)
		return nil
	}
	if n.usedMap >= n.MapSlots {
		return fmt.Errorf("cluster: node %d has no free map slot", n.ID)
	}
	n.addUsed(1, 0)
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
	n.addUsed(-1, 0)
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
		n.addUsed(0, 1)
		n.noteChange(bm, br)
		return nil
	}
	if n.usedReduce >= n.ReduceSlots {
		return fmt.Errorf("cluster: node %d has no free reduce slot", n.ID)
	}
	n.addUsed(0, 1)
	n.noteChange(bm, br)
	return nil
}

// ReleaseReduce frees a reduce slot (or container).
func (n *Node) ReleaseReduce() {
	if n.usedReduce <= 0 {
		panic(fmt.Sprintf("cluster: node %d released an unheld reduce slot", n.ID))
	}
	bm, br := n.freeBefore()
	n.addUsed(0, -1)
	if n.resourceMode {
		n.used.MemMB -= n.reduceReq.MemMB
		n.used.VCores -= n.reduceReq.VCores
	}
	n.noteChange(bm, br)
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

// countRacks installs the rack structure and counts free nodes per rack
// from scratch; membership itself is unchanged but the version bumps and
// the state turns dirty so the next snapshot publishes the counts.
//
//lint:publish availState
func (a *availState) countRacks(c *topology.Cluster, nodes []*Node, free func(*Node) bool) {
	a.racks = c
	a.counts = make([]int, c.Racks())
	a.version++
	a.dirty = true
	for _, n := range nodes {
		if free(n) {
			a.counts[c.Rack(n.ID)]++
		}
	}
}

// State is the slot state of the whole cluster.
type State struct {
	nodes       []*Node
	availMap    availState
	availReduce availState

	// Cluster-wide occupied and capacity slot totals, kept by the nodes'
	// Acquire*/Release* and EnableResources so the utilization sample
	// taken on every slot transition is O(1).
	usedMap, usedReduce   int
	totalMap, totalReduce int
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
	s := &State{
		availMap: availState{version: 1}, availReduce: availState{version: 1},
		totalMap: n * mapSlots, totalReduce: n * reduceSlots,
	}
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

// CountRacks makes the availability sets also maintain per-rack
// free-node counts of topology c (the O(1) inputs of the rack-collapsed
// Formula 4/5 sums).
func (s *State) CountRacks(c *topology.Cluster) {
	s.availMap.countRacks(c, s.nodes, freeMap)
	s.availReduce.countRacks(c, s.nodes, freeReduce)
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

// AvailMap returns the map-slot availability set plus its per-rack counts
// (nil before CountRacks) and identity version. The counts are the copy
// published with the node slice, once per version: flip mutates the live
// array in place, and snapshots must stay immutable. Callers must not
// mutate either slice.
func (s *State) AvailMap() (nodes []topology.NodeID, counts []int, version uint64) {
	nodes = s.availMap.snapshot(s.nodes, freeMap)
	return nodes, s.availMap.published, s.availMap.version
}

// AvailReduce returns the reduce-slot availability set plus its per-rack
// counts (nil before CountRacks) and identity version, published as for
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
func (s *State) UsedSlots() (maps, reduces int) { return s.usedMap, s.usedReduce }

// TotalSlots returns the cluster-wide slot capacities. In container mode
// the capacity is expressed as how many containers of each kind would fit
// an idle cluster.
func (s *State) TotalSlots() (maps, reduces int) { return s.totalMap, s.totalReduce }

// EnableResources switches every node to the container model.
func (s *State) EnableResources(capacity, mapReq, reduceReq Resources) error {
	for _, n := range s.nodes {
		if err := n.EnableResources(capacity, mapReq, reduceReq); err != nil {
			return err
		}
	}
	return nil
}
