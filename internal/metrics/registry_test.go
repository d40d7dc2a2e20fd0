package metrics

import (
	"math"
	"strings"
	"testing"
)

// Min returns the smallest observed sample (NaN when empty).
func (h *Histogram) Min() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.min
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Inc()
	c.Add(2.5)
	if c.Value() != 4.5 {
		t.Fatalf("counter %v", c.Value())
	}
}

func TestHistogramStats(t *testing.T) {
	h := NewHistogram(1, 2, 5)
	if !math.IsNaN(h.Mean()) || !math.IsNaN(h.Quantile(0.5)) || !math.IsNaN(h.Min()) {
		t.Fatal("empty histogram should report NaN")
	}
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 10} {
		h.Observe(v)
	}
	if h.N() != 5 || h.sum != 16.5 {
		t.Fatalf("n=%d sum=%v", h.N(), h.sum)
	}
	if h.Min() != 0.5 || h.Max() != 10 {
		t.Fatalf("min=%v max=%v", h.Min(), h.Max())
	}
	if h.Mean() != 3.3 {
		t.Fatalf("mean=%v", h.Mean())
	}
	if q := h.Quantile(0); q != 0.5 {
		t.Fatalf("q0=%v", q)
	}
	if q := h.Quantile(1); q != 10 {
		t.Fatalf("q1=%v", q)
	}
	// The median rank (2.5 of 5) lands in the (1,2] bucket.
	if q := h.Quantile(0.5); q < 1 || q > 2 {
		t.Fatalf("q0.5=%v outside its bucket", q)
	}
	// High quantiles are clamped to the observed max, not the +Inf bound.
	if q := h.Quantile(0.99); q > 10 {
		t.Fatalf("q0.99=%v exceeds max", q)
	}
}

func TestHistogramOverflowBucketQuantiles(t *testing.T) {
	// Every sample lands in the unbounded overflow bucket: all quantiles
	// must stay within the observed range, never the +Inf bound.
	h := NewHistogram(1, 2, 5)
	for _, v := range []float64{100, 200, 300} {
		h.Observe(v)
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		if v := h.Quantile(q); v < 100 || v > 300 {
			t.Fatalf("q%v=%v outside [100, 300]", q, v)
		}
	}

	// Infinite samples poison the overflow-bucket interpolation with
	// Inf-Inf and 0*Inf; the quantile must clamp, not report NaN.
	inf := NewHistogram(1, 2, 5)
	inf.Observe(math.Inf(1))
	inf.Observe(math.Inf(1))
	for _, q := range []float64{0.25, 0.5, 0.75} {
		if v := inf.Quantile(q); math.IsNaN(v) {
			t.Fatalf("q%v=NaN with infinite samples", q)
		}
	}

	// Mixed finite and infinite samples keep low quantiles finite and
	// within range.
	mix := NewHistogram(1, 2, 5)
	mix.Observe(1.5)
	mix.Observe(math.Inf(1))
	if v := mix.Quantile(0.25); math.IsNaN(v) || v < 1.5 {
		t.Fatalf("q0.25=%v with mixed samples", v)
	}
}

func TestHistogramNoBounds(t *testing.T) {
	h := NewHistogram()
	h.Observe(2)
	h.Observe(4)
	if h.N() != 2 || h.Mean() != 3 || h.Quantile(0.5) < 2 || h.Quantile(0.5) > 4 {
		t.Fatalf("boundless histogram: n=%d mean=%v", h.N(), h.Mean())
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("descending bounds accepted")
		}
	}()
	NewHistogram(2, 1)
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Inc()
	r.Counter("a").Add(3)
	if r.Counter("b").Value() != 1 {
		t.Fatal("counter identity lost")
	}
	r.Histogram("h", 1, 2).Observe(1.5)
	if r.Histogram("h").N() != 1 {
		t.Fatal("histogram identity lost")
	}
	if names := r.CounterNames(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("counter names %v", names)
	}
	if names := r.HistogramNames(); len(names) != 1 || names[0] != "h" {
		t.Fatalf("histogram names %v", names)
	}
	out := r.Render()
	if !strings.Contains(out, "a") || !strings.Contains(out, "h") {
		t.Fatalf("render missing entries:\n%s", out)
	}
	// Deterministic rendering: same registry renders identically.
	if out != r.Render() {
		t.Fatal("render not deterministic")
	}
}
