package core

import (
	"sort"

	"mapsched/internal/topology"
)

// Avail is a snapshot of one slot kind's availability set (the N_m / N_r
// of Formulas 4–5) as placement.Service.Snapshot publishes it, with the
// per-rack counts that let the rack-collapsed cost sums run in O(racks)
// instead of O(nodes). Avail values are shared with concurrent readers by
// shallow copy — the slices alias the producer's published snapshot — so
// once built they are never written again (the snapshotfree analyzer
// enforces this in every client package).
//
//lint:immutable-after-publish
type Avail struct {
	// Nodes lists the members in ascending NodeID order. Consumers may
	// binary-search it and must not mutate it.
	Nodes []topology.NodeID
	// Counts holds per-rack member counts (indexed by Cluster.Rack)
	// maintained incrementally by the cluster state. They are nil only
	// in network-condition mode, where no sum reads them.
	Counts []int
	// Version identifies the (Nodes, Counts) content and is the key the
	// cost caches hold it by: the cluster state starts it at 1 and bumps
	// it on every membership change, so equal versions mean equal
	// content.
	Version uint64
}

// containsNode reports whether the ascending list avail contains id.
func containsNode(avail []topology.NodeID, id topology.NodeID) bool {
	k := sort.Search(len(avail), func(i int) bool { return avail[i] >= id })
	return k < len(avail) && avail[k] == id
}
