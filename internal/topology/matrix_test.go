package topology

import (
	"fmt"

	"mapsched/internal/sim"
)

// Matrix is a test topology defined directly by a distance matrix H, as in
// the worked example of Fig. 2 of the paper. It transfers at a flat
// per-pair bandwidth without contention.
type Matrix struct {
	h     [][]float64
	racks []int
	eng   *sim.Engine
	bps   float64
	disk  float64
}

// NewMatrix builds a Matrix topology. h must be square with a zero
// diagonal and non-negative entries. racks assigns each node to a rack;
// pass nil to place every node in rack 0. bps is the point-to-point
// transfer bandwidth (bytes/second) and diskBps the local read bandwidth.
func NewMatrix(eng *sim.Engine, h [][]float64, racks []int, bps, diskBps float64) (*Matrix, error) {
	n := len(h)
	if n == 0 {
		return nil, fmt.Errorf("topology: empty distance matrix")
	}
	for i, row := range h {
		if len(row) != n {
			return nil, fmt.Errorf("topology: row %d has %d entries, want %d", i, len(row), n)
		}
		if row[i] != 0 {
			return nil, fmt.Errorf("topology: diagonal entry h[%d][%d] = %v, want 0", i, i, row[i])
		}
		for j, v := range row {
			if v < 0 {
				return nil, fmt.Errorf("topology: h[%d][%d] = %v is negative", i, j, v)
			}
		}
	}
	if racks == nil {
		racks = make([]int, n)
	}
	if len(racks) != n {
		return nil, fmt.Errorf("topology: %d rack labels for %d nodes", len(racks), n)
	}
	if bps <= 0 || diskBps <= 0 {
		return nil, fmt.Errorf("topology: bandwidths must be positive (bps=%v disk=%v)", bps, diskBps)
	}
	return &Matrix{h: h, racks: racks, eng: eng, bps: bps, disk: diskBps}, nil
}

// Size returns the number of nodes.
func (m *Matrix) Size() int { return len(m.h) }

// Distance returns h[a][b].
func (m *Matrix) Distance(a, b NodeID) float64 { return m.h[a][b] }

// Rack returns the rack label of node a.
func (m *Matrix) Rack(a NodeID) int { return m.racks[a] }

// Transfer completes after bytes/rate seconds with no contention model:
// the flat bandwidth between nodes, the disk bandwidth for src == dst.
func (m *Matrix) Transfer(src, dst NodeID, bytes float64, done func()) *Flow {
	rate := m.bps
	if src == dst {
		rate = m.disk
	}
	if bytes < 0 {
		bytes = 0
	}
	f := &Flow{remaining: bytes, rate: rate, lastUpdate: m.eng.Now()}
	m.eng.After(bytes/rate, func() {
		f.finished = true
		f.remaining = 0
		if done != nil {
			done()
		}
	})
	return f
}
