package topology

import (
	"slices"
	"testing"
)

// nodeSetSizes are the universes FuzzNodeSet draws from: one word, both
// sides of the one-word boundary, the 90-node shape whose third rack
// straddles it, and a 5,000-node cluster.
var nodeSetSizes = []int{1, 63, 64, 65, 90, 5000}

// FuzzNodeSet checks NodeSet against a []bool reference over random
// flips: Has, Len, CountBlocks (block widths 1, 20, 64 and 65, so blocks
// straddle word boundaries, with too few, exactly enough and too many
// blocks) and the ascending Each walk. A set held before a flip must
// read unchanged after it.
func FuzzNodeSet(f *testing.F) {
	for i := range nodeSetSizes {
		f.Add(uint8(i), false, []byte{0, 0, 62, 0, 63, 0, 64, 0, 89, 0, 0, 0})
		f.Add(uint8(i), true, []byte{1, 0, 63, 0, 64, 0, 65, 0, 0x87, 0x13, 63, 0})
	}
	f.Fuzz(func(t *testing.T, size uint8, full bool, flips []byte) {
		n := nodeSetSizes[int(size)%len(nodeSetSizes)]
		ref := make([]bool, n)
		var s NodeSet
		if full {
			s = AllNodes(n)
			for i := range ref {
				ref[i] = true
			}
		}
		checkNodeSet(t, s, ref)
		for i := 0; i+1 < len(flips) && i < 64; i += 2 {
			id := NodeID((int(flips[i]) | int(flips[i+1])<<8) % n)
			held, heldRef := s, slices.Clone(ref)
			ref[id] = !ref[id]
			s = s.With(id, ref[id])
			checkNodeSet(t, s, ref)
			checkNodeSet(t, held, heldRef)
			if again := s.With(id, ref[id]); again.Len() != s.Len() {
				t.Fatalf("re-adding node %d moved Len from %d to %d", id, s.Len(), again.Len())
			}
		}
	})
}

func checkNodeSet(t *testing.T, s NodeSet, ref []bool) {
	t.Helper()
	n := len(ref)
	prefix := make([]int, n+1) // prefix[i] = members below i
	for i, in := range ref {
		prefix[i+1] = prefix[i]
		if in {
			prefix[i+1]++
		}
		if s.Has(NodeID(i)) != in {
			t.Fatalf("Has(%d) = %v, want %v", i, !in, in)
		}
	}
	if s.Has(-1) || s.Has(NodeID(n)) || s.Has(NodeID(n+64)) {
		t.Fatal("Has reports a node outside the universe")
	}
	if s.Len() != prefix[n] {
		t.Fatalf("Len = %d, want %d", s.Len(), prefix[n])
	}
	for _, w := range []int{1, 20, 64, 65, n} {
		blocks := (n + w - 1) / w
		for _, nb := range []int{0, blocks / 2, blocks, blocks + 1} {
			counts := make([]int, nb)
			for b := range counts {
				counts[b] = -1 // CountBlocks must overwrite every entry
			}
			s.CountBlocks(w, counts)
			for b, got := range counts {
				lo, hi := min(b*w, n), min((b+1)*w, n)
				if want := prefix[hi] - prefix[lo]; got != want {
					t.Fatalf("CountBlocks(%d) into %d blocks: block %d = %d, want %d", w, nb, b, got, want)
				}
			}
		}
	}
	var want, walk []NodeID
	for i, in := range ref {
		if in {
			want = append(want, NodeID(i))
		}
	}
	s.Each(func(k NodeID) { walk = append(walk, k) })
	if !slices.Equal(walk, want) {
		t.Fatalf("Each walked %v, want %v", walk, want)
	}
}
