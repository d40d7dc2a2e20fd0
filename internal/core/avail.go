package core

import "mapsched/internal/topology"

// Avail is a snapshot of one slot kind's availability set (the N_m / N_r
// of Formulas 4–5) as placement.Service.Snapshot publishes it. The set is
// a bitmap over rack-major node IDs, so the rack-collapsed cost sums get
// every rack's member count from one Cluster.RackCounts pass.
// Avail values are shared with concurrent readers by copy, so once built
// they are never written again; the set's own words are immutable too
// (topology.NodeSet).
//
//lint:immutable-after-publish
type Avail struct {
	// Nodes is the member set; Each walks it in ascending NodeID order.
	Nodes topology.NodeSet
	// Version identifies the Nodes content and is the key the cost
	// caches hold it by: the cluster state starts it at 1 and bumps it
	// on every membership change, so equal versions mean equal content.
	Version uint64
}
