package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// Point is one (x, F(x)) pair of a rendered CDF curve.
type Point struct {
	X float64
	F float64
}

// Points samples the CDF at n evenly spaced quantiles, suitable for
// printing a figure's series. n < 2 returns at most one point.
func (c CDF) Points(n int) []Point {
	if len(c.sorted) == 0 || n < 1 {
		return nil
	}
	if n == 1 {
		return []Point{{X: c.Max(), F: 1}}
	}
	out := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		x := c.Quantile(q)
		out = append(out, Point{X: x, F: c.At(x)})
	}
	return out
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0, 0},
		{1, 0.25},
		{2.5, 0.5},
		{4, 1},
		{100, 1},
	}
	for _, cs := range cases {
		if got := c.At(cs.x); math.Abs(got-cs.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", cs.x, got, cs.want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if c.At(5) != 0 {
		t.Error("empty At != 0")
	}
	if !math.IsNaN(c.Quantile(0.5)) || !math.IsNaN(c.Mean()) || !math.IsNaN(c.Min()) || !math.IsNaN(c.Max()) {
		t.Error("empty CDF stats should be NaN")
	}
	if c.Points(5) != nil {
		t.Error("empty CDF Points != nil")
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	cases := []struct{ q, want float64 }{
		{0, 10}, {0.2, 10}, {0.21, 20}, {0.5, 30}, {0.8, 40}, {1, 50},
	}
	for _, cs := range cases {
		if got := c.Quantile(cs.q); got != cs.want {
			t.Errorf("Quantile(%v) = %v, want %v", cs.q, got, cs.want)
		}
	}
}

func TestCDFStats(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2})
	if c.Min() != 1 || c.Max() != 3 || c.Mean() != 2 || c.N() != 3 {
		t.Fatalf("stats = %v %v %v %v", c.Min(), c.Max(), c.Mean(), c.N())
	}
}

func TestCDFDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	NewCDF(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("NewCDF mutated its input")
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("Points(5) returned %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].F < pts[i-1].F {
			t.Fatalf("points not monotone: %+v", pts)
		}
	}
	if pts[len(pts)-1].F != 1 {
		t.Fatalf("last point F = %v, want 1", pts[len(pts)-1].F)
	}
	if got := c.Points(1); len(got) != 1 || got[0].F != 1 {
		t.Fatalf("Points(1) = %+v", got)
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(vals []float64, probes []float64) bool {
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 0
			}
		}
		c := NewCDF(vals)
		sort.Float64s(probes)
		prev := -1.0
		for _, x := range probes {
			if math.IsNaN(x) {
				continue
			}
			f := c.At(x)
			if f < 0 || f > 1 || f < prev {
				return false
			}
			prev = f
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeAvgConstant(t *testing.T) {
	var a TimeAvg
	a.Update(0, 5)
	if got := a.Average(10); got != 5 {
		t.Fatalf("constant average = %v, want 5", got)
	}
}

func TestTimeAvgStep(t *testing.T) {
	var a TimeAvg
	a.Update(0, 0)
	a.Update(5, 10) // 0 for 5s, then 10 for 5s
	if got := a.Average(10); got != 5 {
		t.Fatalf("step average = %v, want 5", got)
	}
}

func TestTimeAvgLateStart(t *testing.T) {
	var a TimeAvg
	a.Update(100, 4)
	if got := a.Average(200); got != 4 {
		t.Fatalf("late-start average = %v, want 4", got)
	}
	if got := a.Average(100); got != 0 {
		t.Fatalf("zero-window average = %v, want 0", got)
	}
}

func TestTimeAvgBackwardsPanics(t *testing.T) {
	var a TimeAvg
	a.Update(10, 1)
	defer func() {
		if recover() == nil {
			t.Error("backwards update did not panic")
		}
	}()
	a.Update(5, 2)
}

func TestTimeAvgEmptyIsZero(t *testing.T) {
	var a TimeAvg
	if a.Average(10) != 0 {
		t.Fatal("empty TimeAvg average != 0")
	}
}

func TestLocalityPercentages(t *testing.T) {
	l := LocalityCount{Node: 85, Rack: 10, Remote: 5}
	if l.Total() != 100 {
		t.Fatalf("Total = %d", l.Total())
	}
	if l.PercentNode() != 85 || l.PercentRack() != 10 || l.PercentRemote() != 5 {
		t.Fatalf("percentages = %v %v %v", l.PercentNode(), l.PercentRack(), l.PercentRemote())
	}
	var empty LocalityCount
	if empty.PercentNode() != 0 {
		t.Fatal("empty percent != 0")
	}
	l.Merge(LocalityCount{Node: 15, Rack: 0, Remote: 0})
	if l.Node != 100 || l.Total() != 115 {
		t.Fatalf("merge wrong: %+v", l)
	}
}

func TestLocalityPercentSumProperty(t *testing.T) {
	f := func(n, r, m uint16) bool {
		l := LocalityCount{Node: int(n), Rack: int(r), Remote: int(m)}
		if l.Total() == 0 {
			return l.PercentNode() == 0
		}
		sum := l.PercentNode() + l.PercentRack() + l.PercentRemote()
		return math.Abs(sum-100) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReduction(t *testing.T) {
	if got := Reduction(100, 83); math.Abs(got-0.17) > 1e-12 {
		t.Fatalf("Reduction(100,83) = %v, want 0.17", got)
	}
	if got := Reduction(100, 120); math.Abs(got+0.2) > 1e-12 {
		t.Fatalf("Reduction(100,120) = %v, want -0.2", got)
	}
	if Reduction(0, 5) != 0 {
		t.Fatal("Reduction with zero base != 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("JobID", "Time", "Pct")
	tb.AddRow("01", 123.456, 50.0)
	tb.AddRow("02", 7.0, 12.34)
	s := tb.String()
	if !strings.Contains(s, "JobID") || !strings.Contains(s, "123.46") {
		t.Fatalf("table output missing cells:\n%s", s)
	}
	if !strings.Contains(s, "50") {
		t.Fatalf("integral float not trimmed:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), s)
	}
}

func TestFormatHelpers(t *testing.T) {
	if GB(10e9) != "10GB" {
		t.Fatalf("GB(10e9) = %q", GB(10e9))
	}
	if Seconds(3.14159) != "3.1s" {
		t.Fatalf("Seconds = %q", Seconds(3.14159))
	}
}

func TestCDFPointsMoreThanSamples(t *testing.T) {
	c := NewCDF([]float64{1, 2})
	pts := c.Points(10)
	if len(pts) != 10 {
		t.Fatalf("Points(10) over 2 samples = %d points", len(pts))
	}
	for _, p := range pts {
		if p.X != 1 && p.X != 2 {
			t.Fatalf("point %v not a sample value", p.X)
		}
	}
	if got := c.Points(0); got != nil {
		t.Fatal("Points(0) should be nil")
	}
}

func TestTableNoRows(t *testing.T) {
	tb := NewTable("A", "B")
	s := tb.String()
	if !strings.Contains(s, "A") {
		t.Fatal("empty table lost its header")
	}
}

func TestTableRowWiderThanHeader(t *testing.T) {
	tb := NewTable("A")
	tb.AddRow("x", "extra", "cols")
	s := tb.String()
	if !strings.Contains(s, "extra") || !strings.Contains(s, "cols") {
		t.Fatalf("wide row truncated:\n%s", s)
	}
}
