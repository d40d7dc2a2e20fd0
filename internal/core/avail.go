package core

import (
	"sort"

	"mapsched/internal/topology"
)

// Avail is a snapshot of one slot kind's availability set (the N_m / N_r
// of Formulas 4–5) together with the optional aggregates that let the
// rack-collapsed cost sums run in O(racks) instead of O(nodes). Avail values are shared with concurrent readers by shallow
// copy — the slices alias the producer's published snapshot — so once
// built they are never written again (the snapshotfree analyzer
// enforces this in every client package).
//
//lint:immutable-after-publish
type Avail struct {
	// Nodes lists the members in ascending NodeID order. Consumers may
	// binary-search it and must not mutate it.
	Nodes []topology.NodeID
	// Counts holds per-rack member counts (indexed by Cluster.Rack)
	// maintained incrementally by the cluster state; nil when the state
	// does not count racks — evaluators then derive counts by scanning
	// Nodes.
	Counts []int
	// Version identifies the (Nodes, Counts) content: producers bump it on
	// every membership change, so equal non-zero versions mean equal
	// content and evaluators skip the O(nodes) comparison. 0 means "no
	// identity known" (ad-hoc snapshots in tests) and forces the full
	// comparison.
	Version uint64
}

// NewAvail wraps a plain ascending node list with no counts and no
// identity — the form used by tests and ad-hoc callers.
func NewAvail(nodes []topology.NodeID) Avail { return Avail{Nodes: nodes} }

// containsNode reports whether the ascending list avail contains id.
func containsNode(avail []topology.NodeID, id topology.NodeID) bool {
	k := sort.Search(len(avail), func(i int) bool { return avail[i] >= id })
	return k < len(avail) && avail[k] == id
}
