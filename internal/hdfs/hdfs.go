// Package hdfs models a distributed block store in the style of the Hadoop
// Distributed File System: files are split into fixed-size blocks, each
// block is replicated onto several data nodes according to a placement
// policy, and the scheduler consults the store for replica locations
// (the L_lj indicator of the paper) and block sizes (B_j).
package hdfs

import (
	"fmt"
	"math"

	"mapsched/internal/sim"
	"mapsched/internal/topology"
)

// BlockID identifies a block within a Store.
type BlockID int

// Block is one replicated chunk of a file.
type Block struct {
	ID       BlockID
	Size     float64           // bytes (B_j in the paper)
	Replicas []topology.NodeID //lint:epoch-guarded replica locations feed cached cost rows; see Store.epoch
}

// PlacementPolicy chooses the data nodes holding a new block's replicas.
type PlacementPolicy interface {
	// Place returns repl distinct node IDs for a new block.
	Place(net topology.Network, rng *sim.RNG, repl int) []topology.NodeID
	// Name identifies the policy in logs and experiment output.
	Name() string
}

// Store holds blocks and per-node usage statistics.
type Store struct {
	net    topology.Network
	rng    *sim.RNG
	blocks []Block
	usage  []float64 // bytes stored per node (counting replicas)
	epoch  uint64    // bumped on every replica-set mutation after placement
}

// NewStore creates an empty store over the given network.
func NewStore(net topology.Network, rng *sim.RNG) *Store {
	return &Store{net: net, rng: rng, usage: make([]float64, net.Size())}
}

// AddFile splits totalBytes into blocks of blockSize (the final block may
// be smaller), places each with policy at the given replication factor,
// and returns the new block IDs. repl is clamped to the cluster size.
func (s *Store) AddFile(totalBytes, blockSize float64, repl int, policy PlacementPolicy) ([]BlockID, error) {
	if totalBytes <= 0 {
		return nil, fmt.Errorf("hdfs: file size %v must be positive", totalBytes)
	}
	if blockSize <= 0 {
		return nil, fmt.Errorf("hdfs: block size %v must be positive", blockSize)
	}
	if repl < 1 {
		return nil, fmt.Errorf("hdfs: replication factor %d must be >= 1", repl)
	}
	if repl > s.net.Size() {
		repl = s.net.Size()
	}
	// The epsilon forgives float error when totalBytes is an exact multiple
	// of blockSize computed as totalBytes/n (e.g. 50e9/490 blocks).
	nBlocks := int(math.Ceil(totalBytes/blockSize - 1e-9))
	if nBlocks < 1 {
		nBlocks = 1
	}
	ids := make([]BlockID, 0, nBlocks)
	remaining := totalBytes
	for b := 0; b < nBlocks; b++ {
		size := blockSize
		if remaining < blockSize {
			size = remaining
		}
		remaining -= size
		id, err := s.AddBlock(size, repl, policy)
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// AddBlock places a single block and returns its ID.
func (s *Store) AddBlock(size float64, repl int, policy PlacementPolicy) (BlockID, error) {
	if policy == nil {
		policy = RackAware{}
	}
	if repl > s.net.Size() {
		repl = s.net.Size()
	}
	nodes := policy.Place(s.net, s.rng, repl)
	if len(nodes) != repl {
		return 0, fmt.Errorf("hdfs: policy %s returned %d replicas, want %d", policy.Name(), len(nodes), repl)
	}
	seen := make(map[topology.NodeID]struct{}, repl)
	for _, n := range nodes {
		if int(n) < 0 || int(n) >= s.net.Size() {
			return 0, fmt.Errorf("hdfs: policy %s placed replica on invalid node %d", policy.Name(), n)
		}
		if _, dup := seen[n]; dup {
			return 0, fmt.Errorf("hdfs: policy %s placed two replicas on node %d", policy.Name(), n)
		}
		seen[n] = struct{}{}
		s.usage[n] += size
	}
	id := BlockID(len(s.blocks))
	s.blocks = append(s.blocks, Block{ID: id, Size: size, Replicas: nodes})
	return id, nil
}

// NumBlocks returns the number of blocks stored.
func (s *Store) NumBlocks() int { return len(s.blocks) }

// Block returns the block with the given ID.
func (s *Store) Block(id BlockID) Block { return s.blocks[id] }

// Size returns a block's size in bytes (B_j).
func (s *Store) Size(id BlockID) float64 { return s.blocks[id].Size }

// Replicas returns the nodes holding replicas of the block (L_lj = 1).
func (s *Store) Replicas(id BlockID) []topology.NodeID { return s.blocks[id].Replicas }

// HasReplica reports whether node n stores a replica of the block.
func (s *Store) HasReplica(id BlockID, n topology.NodeID) bool {
	for _, r := range s.blocks[id].Replicas {
		if r == n {
			return true
		}
	}
	return false
}

// Epoch returns the replica-mutation counter. Replica sets are immutable
// between equal epochs, so caches keyed on replica locations (the core
// cost model's per-block rows) can invalidate exactly. Initial placement
// via AddBlock does not bump it: blocks are placed before any cache reads
// them.
func (s *Store) Epoch() uint64 { return s.epoch }

// RemoveNodeReplicas deletes every replica stored on node n — the
// namenode's view after a datanode is declared dead, or a scripted
// replica-loss fault — and returns how many blocks lost a replica.
// Blocks left with no replicas stay in the store; readers observe an
// empty replica set and must fail or fall back.
func (s *Store) RemoveNodeReplicas(n topology.NodeID) int {
	lost := 0
	for i := range s.blocks {
		b := &s.blocks[i]
		for j, r := range b.Replicas {
			if r == n {
				b.Replicas = append(b.Replicas[:j], b.Replicas[j+1:]...)
				lost++
				break
			}
		}
	}
	// Node n holds nothing now. Zeroing its usage instead of subtracting
	// each block size keeps the rounding of the add/subtract sequence
	// from leaving a residue on an empty node.
	s.usage[n] = 0
	if lost > 0 {
		s.epoch++
	}
	return lost
}

// SetReplicas replaces block id's replica set with an exact copy of
// nodes, preserving their order — Nearest breaks distance ties by slice
// order, so restoring a checkpointed store must reproduce the order
// bit-for-bit, not just the membership. Usage statistics are adjusted
// and the epoch bumps. Out-of-range block or node IDs and duplicate
// nodes are rejected with the state unchanged.
func (s *Store) SetReplicas(id BlockID, nodes []topology.NodeID) error {
	if int(id) < 0 || int(id) >= len(s.blocks) {
		return fmt.Errorf("hdfs: no block %d", id)
	}
	seen := make(map[topology.NodeID]struct{}, len(nodes))
	for _, n := range nodes {
		if int(n) < 0 || int(n) >= s.net.Size() {
			return fmt.Errorf("hdfs: replica on invalid node %d", n)
		}
		if _, dup := seen[n]; dup {
			return fmt.Errorf("hdfs: duplicate replica on node %d", n)
		}
		seen[n] = struct{}{}
	}
	b := &s.blocks[id]
	for _, r := range b.Replicas {
		s.usage[r] -= b.Size
	}
	b.Replicas = append(make([]topology.NodeID, 0, len(nodes)), nodes...)
	for _, r := range b.Replicas {
		s.usage[r] += b.Size
	}
	s.epoch++
	return nil
}

// Usage returns the bytes stored on node n across all replicas.
func (s *Store) Usage(n topology.NodeID) float64 { return s.usage[n] }

// RackAware is the default HDFS placement policy: the first replica on a
// uniformly random node, the second on a node in a different rack when the
// cluster has one, and further replicas on distinct random nodes preferring
// the second replica's rack.
type RackAware struct{}

// Name implements PlacementPolicy.
func (RackAware) Name() string { return "rack-aware" }

// Place implements PlacementPolicy.
func (RackAware) Place(net topology.Network, rng *sim.RNG, repl int) []topology.NodeID {
	n := net.Size()
	chosen := make([]topology.NodeID, 0, repl)
	used := make(map[topology.NodeID]struct{}, repl)
	pick := func(ok func(topology.NodeID) bool) bool {
		// Rejection-sample a few times, then fall back to a scan so the
		// policy terminates even when the predicate is rarely satisfiable.
		for t := 0; t < 16; t++ {
			c := topology.NodeID(rng.Intn(n))
			if _, dup := used[c]; !dup && ok(c) {
				chosen = append(chosen, c)
				used[c] = struct{}{}
				return true
			}
		}
		start := rng.Intn(n)
		for i := 0; i < n; i++ {
			c := topology.NodeID((start + i) % n)
			if _, dup := used[c]; !dup && ok(c) {
				chosen = append(chosen, c)
				used[c] = struct{}{}
				return true
			}
		}
		return false
	}
	any := func(topology.NodeID) bool { return true }

	// First replica: anywhere.
	pick(any)
	if repl >= 2 && len(chosen) == 1 {
		first := chosen[0]
		offRack := func(c topology.NodeID) bool { return net.Rack(c) != net.Rack(first) }
		if !pick(offRack) {
			pick(any) // single-rack cluster
		}
	}
	for len(chosen) < repl {
		if len(chosen) >= 2 {
			second := chosen[1]
			sameRack := func(c topology.NodeID) bool { return net.Rack(c) == net.Rack(second) }
			if pick(sameRack) {
				continue
			}
		}
		if !pick(any) {
			break
		}
	}
	return chosen
}

// Subset confines all replicas to the first K nodes, modelling storage
// concentrated on a subset of the cluster (the NAS/SAN scenario the paper
// motivates in the introduction). K is clamped to [repl, cluster size].
type Subset struct {
	K int
}

// Name implements PlacementPolicy.
func (p Subset) Name() string { return fmt.Sprintf("subset-%d", p.K) }

// Place implements PlacementPolicy.
func (p Subset) Place(net topology.Network, rng *sim.RNG, repl int) []topology.NodeID {
	k := p.K
	if k > net.Size() {
		k = net.Size()
	}
	if k < repl {
		k = repl
	}
	perm := rng.Perm(k)
	out := make([]topology.NodeID, repl)
	for i := 0; i < repl; i++ {
		out[i] = topology.NodeID(perm[i])
	}
	return out
}
