package topology

import "math/bits"

// NodeSet is an immutable set of node IDs: a bitmap with one bit per
// node plus its member count. Node IDs are rack-major (Cluster.Rack), so
// each rack is a contiguous bit range and one CountBlocks pass counts
// every rack's members (Cluster.RackCounts). The zero value is the empty
// set.
//
// Sets are shared with concurrent readers by value, so a set is never
// written once built: With returns a fresh copy and leaves its receiver
// untouched (the snapshotfree analyzer enforces this outside the
// constructors).
//
//lint:immutable-after-publish
type NodeSet struct {
	words []uint64
	n     int
}

// AllNodes returns the set {0, ..., n-1}.
func AllNodes(n int) NodeSet {
	s := NodeSet{words: make([]uint64, (n+63)/64), n: n}
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		s.words[len(s.words)-1] = 1<<r - 1
	}
	return s
}

// Len returns the number of members.
func (s NodeSet) Len() int { return s.n }

// Has reports whether id is a member.
func (s NodeSet) Has(id NodeID) bool {
	w := uint(id) / 64
	return w < uint(len(s.words)) && s.words[w]&(1<<(uint(id)%64)) != 0
}

// CountBlocks sets counts[b] to the number of members in
// [b·width, (b+1)·width) for every b < len(counts), in one pass over the
// words: each step counts the bits of one word that fall in the block
// of its lowest set bit. width must be positive.
func (s NodeSet) CountBlocks(width int, counts []int) {
	clear(counts)
	if len(counts) == 0 {
		return
	}
	b, end := 0, width // block b is [end-width, end)
	for w, word := range s.words {
		base := 64 * w
		for word != 0 {
			for low := base + bits.TrailingZeros64(word); end <= low; end += width {
				if b++; b == len(counts) {
					return
				}
			}
			if end-base >= 64 {
				counts[b] += bits.OnesCount64(word)
				break
			}
			in := word & (1<<uint(end-base) - 1)
			counts[b] += bits.OnesCount64(in)
			word ^= in
		}
	}
}

// Each calls fn for every member in ascending order. It clears each
// word's bits one by one rather than seeking from an ID per member, so
// no step waits on the previous member's load.
func (s NodeSet) Each(fn func(NodeID)) {
	for w, word := range s.words {
		for ; word != 0; word &= word - 1 {
			fn(NodeID(64*w + bits.TrailingZeros64(word)))
		}
	}
}

// With returns the set with id added (in) or removed (!in). The receiver
// is unchanged: the result copies its words when membership changes.
func (s NodeSet) With(id NodeID, in bool) NodeSet {
	if s.Has(id) == in {
		return s
	}
	w := int(id / 64)
	words := make([]uint64, max(len(s.words), w+1))
	copy(words, s.words)
	words[w] ^= 1 << (uint(id) % 64)
	if in {
		return NodeSet{words: words, n: s.n + 1}
	}
	return NodeSet{words: words, n: s.n - 1}
}
