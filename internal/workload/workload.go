// Package workload defines the paper's evaluation workloads: the Table II
// job batches (10 Wordcount, 10 Terasort, 10 Grep jobs, 10–100 GB inputs)
// with their published map/reduce task counts, and the per-application
// behaviour profiles (selectivity, partition skew, compute rates) that
// yield the shuffle-size distribution of Fig. 3.
package workload

import (
	"fmt"

	"mapsched/internal/hdfs"
	"mapsched/internal/job"
	"mapsched/internal/sim"
)

// Kind is an application class. The first three are the paper's
// evaluation workloads (Section III); the rest extend the suite with
// further BigDataBench-style applications for mixed-batch experiments.
type Kind int

// Application classes.
const (
	Wordcount Kind = iota
	Terasort
	Grep

	// Extended suite (not part of Table II).
	PageRank // iterative graph processing: shuffle-heavy with hot vertices
	KMeans   // CPU-bound clustering: tiny shuffle of centroids
	Join     // two-table equi-join: shuffle exceeding input
)

// String returns the application name as printed in Table II.
func (k Kind) String() string {
	switch k {
	case Wordcount:
		return "Wordcount"
	case Terasort:
		return "Terasort"
	case Grep:
		return "Grep"
	case PageRank:
		return "PageRank"
	case KMeans:
		return "KMeans"
	case Join:
		return "Join"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds lists the paper's application classes in Table II order.
func Kinds() []Kind { return []Kind{Wordcount, Terasort, Grep} }

// ProfileFor returns the behaviour profile of an application class.
//
// Selectivities are chosen to reproduce the shuffle-intensity mix of
// Fig. 3: Wordcount emits (word, count) pairs larger than its input
// (shuffle-heavy), Terasort shuffles exactly its input, and Grep emits
// only matching lines (map-intensive). Rates are per-slot processing
// rates; skew concentrates intermediate data on hot partitions for the
// text workloads while Terasort's range partitioner is balanced.
func ProfileFor(k Kind) job.Profile {
	switch k {
	case Wordcount:
		return job.Profile{
			Name:              "Wordcount",
			MapSelectivity:    2.2,
			MapRate:           45e6,
			ReduceRate:        200e6,
			PartitionSkew:     0.6,
			SelectivityJitter: 0.15,
			OutputCurveSpread: 0.25,
			ComputeJitter:     0.2,
		}
	case Terasort:
		return job.Profile{
			Name:              "Terasort",
			MapSelectivity:    1.0,
			MapRate:           80e6,
			ReduceRate:        250e6,
			PartitionSkew:     0,
			SelectivityJitter: 0.05,
			OutputCurveSpread: 0.1,
			ComputeJitter:     0.15,
		}
	case Grep:
		return job.Profile{
			Name:              "Grep",
			MapSelectivity:    0.05,
			MapRate:           120e6,
			ReduceRate:        150e6,
			PartitionSkew:     0.8,
			SelectivityJitter: 0.3,
			OutputCurveSpread: 0.3,
			ComputeJitter:     0.2,
		}
	case PageRank:
		return job.Profile{
			Name:              "PageRank",
			MapSelectivity:    1.8, // rank contributions per edge
			MapRate:           35e6,
			ReduceRate:        120e6,
			PartitionSkew:     1.2, // power-law vertex degrees
			SelectivityJitter: 0.2,
			OutputCurveSpread: 0.3,
			ComputeJitter:     0.25,
		}
	case KMeans:
		return job.Profile{
			Name:              "KMeans",
			MapSelectivity:    0.002, // only centroid partial sums
			MapRate:           15e6,  // distance computation dominates
			ReduceRate:        100e6,
			PartitionSkew:     0,
			SelectivityJitter: 0.05,
			OutputCurveSpread: 0.05,
			ComputeJitter:     0.15,
		}
	case Join:
		return job.Profile{
			Name:              "Join",
			MapSelectivity:    1.4, // tagged records of both relations
			MapRate:           55e6,
			ReduceRate:        90e6,
			PartitionSkew:     0.9, // skewed join keys
			SelectivityJitter: 0.25,
			OutputCurveSpread: 0.25,
			ComputeJitter:     0.2,
		}
	default:
		panic(fmt.Sprintf("workload: unknown kind %d", int(k)))
	}
}

// JobDef is one row of Table II.
type JobDef struct {
	JobID   string // "01".."30"
	Kind    Kind
	InputGB int
	Maps    int // map task count as published
	Reduces int // reduce task count as published
}

// Name returns the Table II job name, e.g. "Wordcount_10GB".
func (d JobDef) Name() string { return fmt.Sprintf("%s_%dGB", d.Kind, d.InputGB) }

// tableII holds the published counts of Table II, in JobID order.
var tableII = []JobDef{
	{"01", Wordcount, 10, 88, 157},
	{"02", Wordcount, 20, 160, 169},
	{"03", Wordcount, 30, 278, 159},
	{"04", Wordcount, 40, 502, 169},
	{"05", Wordcount, 50, 490, 127},
	{"06", Wordcount, 60, 645, 187},
	{"07", Wordcount, 70, 598, 165},
	{"08", Wordcount, 80, 818, 291},
	{"09", Wordcount, 90, 837, 157},
	{"10", Wordcount, 100, 930, 197},
	{"11", Terasort, 10, 143, 190},
	{"12", Terasort, 20, 199, 186},
	{"13", Terasort, 30, 364, 131},
	{"14", Terasort, 40, 320, 149},
	{"15", Terasort, 50, 490, 189},
	{"16", Terasort, 60, 480, 193},
	{"17", Terasort, 70, 560, 178},
	{"18", Terasort, 80, 648, 184},
	{"19", Terasort, 90, 753, 171},
	{"20", Terasort, 100, 824, 193},
	{"21", Grep, 10, 87, 148},
	{"22", Grep, 20, 163, 174},
	{"23", Grep, 30, 188, 184},
	{"24", Grep, 40, 203, 158},
	{"25", Grep, 50, 285, 164},
	{"26", Grep, 60, 389, 137},
	{"27", Grep, 70, 578, 179},
	{"28", Grep, 80, 634, 178},
	{"29", Grep, 90, 815, 164},
	{"30", Grep, 100, 893, 184},
}

// TableII returns all 30 job definitions of the paper's Table II.
func TableII() []JobDef {
	out := make([]JobDef, len(tableII))
	copy(out, tableII)
	return out
}

// Batch returns the 10-job batch for one application class, as run in the
// paper ("we created 3 batches of jobs ... and run these 3 batches
// separately").
func Batch(k Kind) []JobDef {
	var out []JobDef
	for _, d := range tableII {
		if d.Kind == k {
			out = append(out, d)
		}
	}
	return out
}

// Options shape how job definitions are instantiated as simulation specs.
type Options struct {
	// Scale divides input sizes and task counts by this factor, preserving
	// workload shape while keeping simulations tractable. 1 reproduces
	// Table II exactly.
	Scale int
	// Replication is the HDFS replication factor (paper: 2).
	Replication int
	// Placement decides block placement; nil means hdfs.RackAware.
	Placement hdfs.PlacementPolicy
	// SubmitStagger is the delay between consecutive job submissions in a
	// batch, in seconds. The paper submits each batch together; a small
	// stagger avoids an artificial all-at-once thundering herd.
	SubmitStagger float64
}

// DefaultOptions returns the settings used by the experiment harness.
func DefaultOptions() Options {
	return Options{Scale: 6, Replication: 2, SubmitStagger: 1}
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.Scale < 1 {
		return fmt.Errorf("workload: Scale = %d, need >= 1", o.Scale)
	}
	if o.Replication < 1 {
		return fmt.Errorf("workload: Replication = %d, need >= 1", o.Replication)
	}
	if o.SubmitStagger < 0 {
		return fmt.Errorf("workload: negative SubmitStagger")
	}
	return nil
}

// Spec converts one Table II row into a job.Spec at the given position in
// its batch. Map counts determine the block size (input/maps) so the
// generated job has exactly the scaled number of map tasks.
func (d JobDef) Spec(pos int, o Options) (job.Spec, error) {
	if err := o.Validate(); err != nil {
		return job.Spec{}, err
	}
	maps := scaleCount(d.Maps, o.Scale)
	reduces := scaleCount(d.Reduces, o.Scale)
	input := float64(d.InputGB) * 1e9 / float64(o.Scale)
	return job.Spec{
		Name:        d.Name(),
		Profile:     ProfileFor(d.Kind),
		InputBytes:  input,
		BlockSize:   input / float64(maps),
		NumReduces:  reduces,
		Submit:      sim.Time(float64(pos) * o.SubmitStagger),
		Placement:   o.Placement,
		Replication: o.Replication,
	}, nil
}

func scaleCount(n, scale int) int {
	s := (n + scale - 1) / scale
	if s < 1 {
		s = 1
	}
	return s
}

// Specs instantiates a whole batch of definitions in submission order.
func Specs(defs []JobDef, o Options) ([]job.Spec, error) {
	out := make([]job.Spec, 0, len(defs))
	for i, d := range defs {
		s, err := d.Spec(i, o)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// ShuffleBytes returns the expected total intermediate volume of a
// definition (input × selectivity), the quantity plotted in Fig. 3.
func (d JobDef) ShuffleBytes() float64 {
	return float64(d.InputGB) * 1e9 * ProfileFor(d.Kind).MapSelectivity
}

// InputBytes returns the input volume in bytes.
func (d JobDef) InputBytes() float64 { return float64(d.InputGB) * 1e9 }
