//lint:allow nodeterminism wall-clock and resource counters are what the benchmark measures; no reading feeds a simulation
package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of values (0 < q <= 1):
// the smallest sample with at least a share q of the samples at or below
// it. values is sorted in place. It returns 0 for an empty slice.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sort.Float64s(values)
	rank := int(math.Ceil(q * float64(len(values))))
	if rank < 1 {
		rank = 1
	}
	return values[rank-1]
}

// median is the midpoint median of values (sorted in place).
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	sort.Float64s(values)
	if n%2 == 1 {
		return values[n/2]
	}
	return (values[n/2-1] + values[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method), which is how run-to-run spread is judged.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	switch len(x) {
	case 0:
		return 0, 0, 0
	case 1:
		return x[0], x[0], x[0]
	}
	ld, m := len(x), len(x)+1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// latencies is a histogram of latencies in µs with bins 1% wide, so its
// quantiles are good to 1% and its memory stays fixed however many
// samples a run takes; a growing sample slice would show in the live
// heap the benchmark measures.
type latencies struct {
	bins [latencyBins]uint32
	n    int
	sum  float64 // µs
}

const (
	latencyMin    = 0.01 // µs, the lower edge of the first bin
	latencyGrowth = 1.01 // ratio of a bin's upper edge to its lower one
	latencyBins   = 2400 // up to about 230 s
)

func (l *latencies) add(us float64) {
	b := 0
	if us > latencyMin {
		b = min(int(math.Log(us/latencyMin)/math.Log(latencyGrowth)), latencyBins-1)
	}
	l.bins[b]++
	l.n++
	l.sum += us
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) as the
// geometric middle of its bin, or 0 when the histogram is empty.
func (l *latencies) quantile(q float64) float64 {
	rank := max(int(math.Ceil(q*float64(l.n))), 1)
	seen := 0
	for b, k := range l.bins {
		if seen += int(k); seen >= rank {
			return latencyMin * math.Pow(latencyGrowth, float64(b)+0.5)
		}
	}
	return 0
}

// micros converts a duration to microseconds.
func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// counters is a snapshot of the process-wide costs an operation is
// charged with: wall clock, heap allocation and garbage-collector work.
type counters struct {
	wall     time.Time
	allocs   uint64 // heap objects allocated
	allocB   uint64 // heap bytes allocated
	gcCPU    float64
	gcCycles uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// readCounters samples the counters. The allocation figures are exact
// up to the sampling call itself; the GC CPU figure is the runtime's
// estimate.
func readCounters() counters {
	metrics.Read(runtimeSamples)
	return counters{
		allocs:   runtimeSamples[0].Value.Uint64(),
		allocB:   runtimeSamples[1].Value.Uint64(),
		gcCPU:    runtimeSamples[2].Value.Float64(),
		gcCycles: runtimeSamples[3].Value.Uint64(),
		wall:     time.Now(),
	}
}

// cost is what happened between two counter snapshots.
type cost struct {
	wall     float64 // seconds
	allocs   float64
	allocKB  float64
	gcCPU    float64 // seconds
	gcCycles float64
}

func since(a counters) cost {
	b := readCounters()
	return cost{
		wall:     b.wall.Sub(a.wall).Seconds(),
		allocs:   float64(b.allocs - a.allocs),
		allocKB:  float64(b.allocB-a.allocB) / 1e3,
		gcCPU:    b.gcCPU - a.gcCPU,
		gcCycles: float64(b.gcCycles - a.gcCycles),
	}
}

// heapWatch records the live heap each garbage collection leaves while
// it watches. Peak RSS is too noisy to gate on: at millions of
// allocations per run it depends on where in the program each collection
// happens to fall. So is the largest live heap: a collection counts what
// is allocated while it marks as live, and how long marking takes
// depends on scheduling. The median over a run's collections is steady.
// A finalizer on a sentinel runs after every cycle, reads the live heap
// the cycle marked and arms a new sentinel for the next one.
type heapWatch struct {
	mu      sync.Mutex
	live    []float64 // MB
	stopped bool
}

type gcSentinel struct{ _ *byte } // holds a pointer, so never tiny-allocated

func watchHeap() *heapWatch {
	h := &heapWatch{}
	h.arm()
	return h
}

func (h *heapWatch) arm() {
	runtime.SetFinalizer(new(gcSentinel), func(*gcSentinel) { h.sample() })
}

func (h *heapWatch) sample() {
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.stopped {
		return
	}
	h.live = append(h.live, float64(live[0].Value.Uint64())/1e6)
	h.arm()
}

// stop ends the watch and returns the median and the largest live heap
// of the collections it saw, in MB.
func (h *heapWatch) stop() (median, peak float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stopped = true
	return quantile(h.live, 0.5), quantile(h.live, 1)
}

// maxRSSMB returns the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
