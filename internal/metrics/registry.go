package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// Counter is a monotonically growing tally. The zero value is usable.
// Counter updates and reads are atomic (a float64 carried in a uint64
// CAS loop), so background goroutines — the placement service's
// invariant auditor — can tally next to a running simulation. Registry
// lookups are NOT synchronized: create counters before sharing them
// across goroutines.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d (negative deltas are allowed for gauges-as-counters misuse,
// but the registry renders whatever the final value is).
func (c *Counter) Add(d float64) {
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current tally.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Histogram is a streaming distribution summary: fixed bucket boundaries
// plus exact count/sum/min/max. It never stores samples, so observing is
// O(log buckets) and memory is constant — suitable for per-decision
// event streams of arbitrary length.
type Histogram struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []int64   // len(bounds)+1
	n      int64
	sum    float64
	min    float64
	max    float64
}

// DefaultTimeBounds are bucket boundaries (seconds) suited to queue-wait
// and task-duration distributions at simulation scale.
var DefaultTimeBounds = []float64{0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}

// NewHistogram builds a histogram over the given ascending upper bounds.
// With no bounds it still tracks count/sum/min/max exactly.
func NewHistogram(bounds ...float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// N returns the sample count.
func (h *Histogram) N() int64 { return h.n }

// Mean returns the sample mean (NaN when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.n)
}

// Max returns the largest observed sample (NaN when empty).
func (h *Histogram) Max() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.max
}

// Quantile estimates the q-quantile from the buckets by linear
// interpolation within the containing bucket, clamped to the observed
// min/max. Empty histograms return NaN.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := float64(q * float64(h.n))
	var cum float64
	for i, c := range h.counts {
		next := cum + float64(c)
		if next >= rank && c > 0 {
			lo := h.min
			if i > 0 {
				lo = math.Max(h.min, h.bounds[i-1])
			}
			hi := h.max
			if i < len(h.bounds) {
				hi = math.Min(h.max, h.bounds[i])
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - cum) / float64(c)
			v := lo + float64(frac*(hi-lo))
			// Infinite samples land in the unbounded overflow bucket and
			// poison the interpolation (Inf-Inf, 0*Inf); clamp so a
			// non-empty histogram always reports a value in [Min, Max].
			if math.IsNaN(v) || v > h.max {
				return h.max
			}
			if v < h.min {
				return h.min
			}
			return v
		}
		cum = next
	}
	return h.max
}

// Registry is a named collection of counters and histograms. Lookups
// create on first use, so emission sites need no registration ceremony.
// Rendering is sorted by name, hence deterministic.
type Registry struct {
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds...)
		r.hists[name] = h
	}
	return h
}

// CounterNames returns the registered counter names, sorted.
func (r *Registry) CounterNames() []string {
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HistogramNames returns the registered histogram names, sorted.
func (r *Registry) HistogramNames() []string {
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Render prints every counter and histogram as aligned text tables,
// sorted by name.
func (r *Registry) Render() string {
	var b strings.Builder
	if len(r.counters) > 0 {
		t := NewTable("Counter", "Value")
		for _, n := range r.CounterNames() {
			t.AddRow(n, r.counters[n].Value())
		}
		b.WriteString(t.String())
	}
	if len(r.hists) > 0 {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		t := NewTable("Histogram", "N", "Mean", "p50", "p95", "Max")
		for _, n := range r.HistogramNames() {
			h := r.hists[n]
			t.AddRow(n, fmt.Sprintf("%d", h.N()), h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.Max())
		}
		b.WriteString(t.String())
	}
	return b.String()
}
