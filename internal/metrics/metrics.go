// Package metrics provides the statistics the paper's evaluation reports:
// empirical CDFs (Figs. 3–6), locality-class tallies (Table III, Fig. 7),
// and time-weighted utilization averages (Section III-A's resource
// utilization claim), plus small text-table helpers for the experiment
// harness output.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution over a sample.
// The zero value is an empty distribution.
type CDF struct {
	sorted []float64
}

// NewCDF copies and sorts values into a CDF.
func NewCDF(values []float64) CDF {
	s := make([]float64, len(values))
	copy(s, values)
	sort.Float64s(s)
	return CDF{sorted: s}
}

// N returns the sample size.
func (c CDF) N() int { return len(c.sorted) }

// At returns the fraction of samples <= x, in [0,1]. Empty CDFs return 0.
func (c CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-quantile (q in [0,1]) by nearest-rank; empty CDFs
// return NaN.
func (c CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	i := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return c.sorted[i]
}

// Min returns the smallest sample (NaN when empty).
func (c CDF) Min() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[0]
}

// Max returns the largest sample (NaN when empty).
func (c CDF) Max() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[len(c.sorted)-1]
}

// Mean returns the sample mean (NaN when empty).
func (c CDF) Mean() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range c.sorted {
		s += v
	}
	return s / float64(len(c.sorted))
}

// TimeAvg integrates a step function over (simulated) time and reports its
// time-weighted mean — used for slot-utilization accounting. The zero
// value starts integrating at t = 0 with value 0; call Update at every
// change point.
type TimeAvg struct {
	started  bool
	lastT    float64
	lastV    float64
	startT   float64
	integral float64
}

// Update records that the tracked quantity has value v from time t onward.
// Updates must be non-decreasing in t.
func (a *TimeAvg) Update(t, v float64) {
	if !a.started {
		a.started = true
		a.startT = t
		a.lastT = t
		a.lastV = v
		return
	}
	if t < a.lastT {
		panic(fmt.Sprintf("metrics: TimeAvg.Update at %v before %v", t, a.lastT))
	}
	a.integral += float64(a.lastV * (t - a.lastT))
	a.lastT = t
	a.lastV = v
}

// Average returns the time-weighted mean over [start, t]. t must be >= the
// last update time. Returns 0 if the window is empty.
func (a *TimeAvg) Average(t float64) float64 {
	if !a.started || t <= a.startT {
		return 0
	}
	integral := a.integral + float64(a.lastV*(t-a.lastT))
	return integral / (t - a.startT)
}

// LocalityCount tallies task placements by locality class.
type LocalityCount struct {
	Node   int // "local node" tasks
	Rack   int // "local rack" tasks
	Remote int
}

// Add increments the class chosen by the three-way flag pair.
func (l *LocalityCount) Total() int { return l.Node + l.Rack + l.Remote }

// PercentNode returns the local-node share in percent (0 when empty).
func (l *LocalityCount) PercentNode() float64 { return pct(l.Node, l.Total()) }

// PercentRack returns the local-rack share in percent.
func (l *LocalityCount) PercentRack() float64 { return pct(l.Rack, l.Total()) }

// PercentRemote returns the remote share in percent.
func (l *LocalityCount) PercentRemote() float64 { return pct(l.Remote, l.Total()) }

// Merge adds other's tallies into l.
func (l *LocalityCount) Merge(other LocalityCount) {
	l.Node += other.Node
	l.Rack += other.Rack
	l.Remote += other.Remote
}

func pct(part, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

// JainIndex returns Jain's fairness index (Σx)² / (n·Σx²) over the
// allocations: 1 when all shares are equal, approaching 1/n as a single
// share dominates. Empty or all-zero inputs return 0.
func JainIndex(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, v := range x {
		sum += v
		sumSq += float64(v * v)
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(x)) * sumSq)
}

// Reduction returns the paper's Fig. 5 metric: (base − ours) / base, the
// fractional improvement of ours over base. Zero base yields 0.
func Reduction(base, ours float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - ours) / base
}

// Table renders fixed-width text tables for the experiment harness.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteByte('\n')
	}
	if len(t.header) > 0 {
		writeRow(t.header)
		sep := make([]string, cols)
		for i := range sep {
			sep[i] = strings.Repeat("-", width[i])
		}
		writeRow(sep)
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// GB formats a byte count in gigabytes for table output.
func GB(bytes float64) string { return fmt.Sprintf("%.0fGB", bytes/1e9) }

// Seconds formats a duration in seconds.
func Seconds(s float64) string { return fmt.Sprintf("%.1fs", s) }
