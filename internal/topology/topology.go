// Package topology models the cluster network: node/rack structure, the
// hop-distance matrix H consumed by the paper's cost formulas, and a
// flow-level network simulator that assigns max-min fair bandwidth shares
// to concurrent transfers.
//
// Cluster is the one topology: a hierarchical rack/core network (hosts →
// top-of-rack → core) matching the Palmetto testbed layout in Section III
// of the paper. Transfers become flows across directed links with capacity
// sharing, so the "network condition" (path transmission rate) emerges
// from contention. Its hop distance between two hosts depends only on
// their racks (RackDistance).
package topology

import (
	"fmt"
	"math"

	"mapsched/internal/sim"
)

// NodeID identifies a data node (0-based, dense).
type NodeID int

// Network is the read-only view the scheduler's cost model needs: the
// distance matrix H and rack membership for locality classification.
type Network interface {
	// Size returns the number of data nodes.
	Size() int
	// Distance returns the entry h_ab of the distance matrix: 0 for a==b,
	// and a positive path length otherwise. Units are "hops" for the
	// default mode, or any consistent cost unit.
	Distance(a, b NodeID) float64
	// Rack returns the rack index of node a.
	Rack(a NodeID) int
}

// Spec configures a hierarchical Cluster topology.
type Spec struct {
	Racks        int     // number of racks (>= 1)
	NodesPerRack int     // hosts per rack (>= 1)
	HostLinkBps  float64 // host <-> ToR capacity, bytes/second each direction
	TorUplinkBps float64 // ToR <-> core capacity, bytes/second each direction
	DiskBps      float64 // local read bandwidth, bytes/second
}

// The paper's hop counts: the H entry for two distinct hosts in one rack
// (host, ToR, host) and in different racks (host, ToR, core, ToR, host).
const (
	sameRackDist  = 2
	crossRackDist = 4
)

// DefaultSpec mirrors the paper's testbed shape: 60 nodes in a single rack
// with gigabit-class host links and a 10 GbE uplink.
func DefaultSpec() Spec {
	return Spec{
		Racks:        1,
		NodesPerRack: 60,
		HostLinkBps:  125e6,  // 1 Gb/s
		TorUplinkBps: 1250e6, // 10 Gb/s
		DiskBps:      400e6,  // local disk read
	}
}

func (s Spec) validate() error {
	if s.Racks < 1 {
		return fmt.Errorf("topology: Racks = %d, need >= 1", s.Racks)
	}
	if s.NodesPerRack < 1 {
		return fmt.Errorf("topology: NodesPerRack = %d, need >= 1", s.NodesPerRack)
	}
	if !finitePositive(s.HostLinkBps) {
		return fmt.Errorf("topology: HostLinkBps = %v, need finite > 0", s.HostLinkBps)
	}
	if !finitePositive(s.TorUplinkBps) {
		return fmt.Errorf("topology: TorUplinkBps = %v, need finite > 0", s.TorUplinkBps)
	}
	if !finitePositive(s.DiskBps) {
		return fmt.Errorf("topology: DiskBps = %v, need finite > 0", s.DiskBps)
	}
	return nil
}

// finitePositive reports whether x is a finite number > 0 (false for NaN).
func finitePositive(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

// Cluster is a hierarchical host/ToR/core topology with a flow-level
// bandwidth-sharing network.
type Cluster struct {
	spec Spec
	n    int
	net  *FlowNet

	hostUp   []LinkID // host i -> its ToR
	hostDown []LinkID // ToR -> host i
	torUp    []LinkID // rack r ToR -> core
	torDown  []LinkID // core -> rack r ToR

	// pathBuf backs the slice path() returns. Every consumer copies it
	// into flow-owned storage (StartFlowBetween), so one scratch array
	// replaces a per-transfer allocation.
	pathBuf [4]LinkID
}

// NewCluster builds the topology and its flow network on eng.
func NewCluster(eng *sim.Engine, spec Spec) (*Cluster, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		spec: spec,
		n:    spec.Racks * spec.NodesPerRack,
		net:  NewFlowNet(eng),
	}
	c.hostUp = make([]LinkID, c.n)
	c.hostDown = make([]LinkID, c.n)
	for i := 0; i < c.n; i++ {
		c.hostUp[i] = c.net.AddLink(spec.HostLinkBps)
		c.hostDown[i] = c.net.AddLink(spec.HostLinkBps)
	}
	c.torUp = make([]LinkID, spec.Racks)
	c.torDown = make([]LinkID, spec.Racks)
	for r := 0; r < spec.Racks; r++ {
		c.torUp[r] = c.net.AddLink(spec.TorUplinkBps)
		c.torDown[r] = c.net.AddLink(spec.TorUplinkBps)
	}
	c.net.sizeFill()
	return c, nil
}

// Size returns the number of hosts.
func (c *Cluster) Size() int { return c.n }

// Rack returns the rack index of node a.
func (c *Cluster) Rack(a NodeID) int { return int(a) / c.spec.NodesPerRack }

// Racks returns the number of racks.
func (c *Cluster) Racks() int { return c.spec.Racks }

// RackCounts sets counts[r] to the number of s's members in rack r, for
// every r < len(counts). IDs are rack-major, so a rack's nodes are one
// contiguous block of the set.
func (c *Cluster) RackCounts(s NodeSet, counts []int) {
	s.CountBlocks(c.spec.NodesPerRack, counts)
}

// RackDistance returns the hop distance between two distinct hosts in
// racks r and s: sameRackDist when r == s, crossRackDist otherwise.
func (c *Cluster) RackDistance(r, s int) float64 {
	if r == s {
		return sameRackDist
	}
	return crossRackDist
}

// Distance returns the H-matrix entry between two hosts: 0 for the same
// node, RackDistance of their racks otherwise.
func (c *Cluster) Distance(a, b NodeID) float64 {
	if a == b {
		return 0
	}
	return c.RackDistance(c.Rack(a), c.Rack(b))
}

// path returns the directed links a transfer from a to b traverses.
// Same-node transfers have no network path. The returned slice is backed
// by a shared scratch buffer, valid until the next path() call; the flow
// network copies it into flow-owned storage.
func (c *Cluster) path(a, b NodeID) []LinkID {
	if a == b {
		return nil
	}
	if c.Rack(a) == c.Rack(b) {
		c.pathBuf[0], c.pathBuf[1] = c.hostUp[a], c.hostDown[b]
		return c.pathBuf[:2]
	}
	c.pathBuf[0], c.pathBuf[1] = c.hostUp[a], c.torUp[c.Rack(a)]
	c.pathBuf[2], c.pathBuf[3] = c.torDown[c.Rack(b)], c.hostDown[b]
	return c.pathBuf[:4]
}

// PathRate returns the max-min share a new flow from a to b would obtain
// right now, in bytes/second: the minimum over the path's links of their
// stored prospective shares, min(UpRate(a), InRate(Rack(a), b)). Section
// II-B-3 of the paper replaces h_ab with its inverse to make the cost
// bandwidth-aware. For a == b it returns the disk bandwidth. Every link share is finite and
// non-negative, so the minimum is exact whatever order it is taken in.
func (c *Cluster) PathRate(a, b NodeID) float64 {
	if a == b {
		return c.spec.DiskBps
	}
	rate := c.UpRate(a)
	if in := c.InRate(c.Rack(a), b); in < rate {
		rate = in
	}
	return rate
}

// UpRate returns the prospective share of node a's uplink, the first link
// of every transfer leaving a.
func (c *Cluster) UpRate(a NodeID) float64 { return c.net.links[c.hostUp[a]].share }

// InRate returns the minimum prospective share over the links a transfer
// from any host of rack r crosses after its source uplink to reach b: b's
// downlink, plus the two ToR/core links when b sits in another rack. So
// PathRate(a, b) = min(UpRate(a), InRate(Rack(a), b)) for a != b, and
// the rest of the path depends on a only through its rack.
func (c *Cluster) InRate(r int, b NodeID) float64 {
	rate := c.net.links[c.hostDown[b]].share
	if rb := c.Rack(b); rb != r {
		if s := c.net.links[c.torUp[r]].share; s < rate {
			rate = s
		}
		if s := c.net.links[c.torDown[rb]].share; s < rate {
			rate = s
		}
	}
	return rate
}

// Transfer moves bytes from src to dst and invokes done on completion.
// Remote transfers become flows in the shared network; local transfers
// (src == dst) are limited by disk bandwidth. Zero-byte transfers complete
// on the next event cycle.
func (c *Cluster) Transfer(src, dst NodeID, bytes float64, done func()) *Flow {
	if src == dst {
		return c.net.LocalTransferAt(src, bytes, c.spec.DiskBps, done)
	}
	return c.net.StartFlowBetween(src, dst, c.path(src, dst), bytes, done)
}

// InjectCrossTraffic starts a permanent background flow between two hosts
// consuming bandwidth on their path; used by the network-condition
// experiments. It returns the flow so callers can cancel it.
func (c *Cluster) InjectCrossTraffic(src, dst NodeID) *Flow {
	if src == dst {
		return nil
	}
	return c.net.StartPersistentFlowBetween(src, dst, c.path(src, dst))
}

// SetHostLinkFactor scales node a's access-link capacity (both directions)
// to factor × the spec's nominal HostLinkBps. Factors are absolute, not
// cumulative: passing 1 restores the nominal capacity, 0 severs the link
// (flows across it stall until restored). Used by fault injection to model
// degraded host links; each call re-shares flows and bumps the epoch.
func (c *Cluster) SetHostLinkFactor(a NodeID, factor float64) {
	if factor < 0 {
		factor = 0
	}
	bps := c.spec.HostLinkBps * factor
	c.net.SetLinkCapacity(c.hostUp[a], bps)
	c.net.SetLinkCapacity(c.hostDown[a], bps)
}

// Net exposes the underlying flow network (for tests and metrics).
func (c *Cluster) Net() *FlowNet { return c.net }

// Epoch returns the flow network's rate-recomputation counter: PathRate
// observations are guaranteed unchanged between equal epochs, so derived
// cost caches can invalidate exactly.
func (c *Cluster) Epoch() uint64 { return c.net.Epoch() }
