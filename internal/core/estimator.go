package core

import (
	"math"

	"mapsched/internal/job"
)

// Estimator predicts the final intermediate volume I_jf a map task will
// have produced for a reduce partition, from scheduler-visible progress
// counters only (the heartbeat-reported A_jf and d_read of Section
// II-B-2). Every estimator factors into the task's final output row times
// a per-task scalar, Î_jf = m.Out[f] · Scale(m), which lets ReduceCoster
// maintain its per-node aggregation incrementally: when a map's progress
// changes, only its node's row is recomputed, at O(#reduces) per
// contributing map instead of a full O(#maps × #reduces) re-aggregation.
type Estimator interface {
	// Scale returns the per-task multiplier applied to m.Out. It is 0
	// when no information is available (e.g. the map has not read any
	// input yet).
	Scale(m *job.MapTask) float64
	// Name identifies the estimator in experiment output.
	Name() string
}

// ProgressScaled is the paper's estimator: Î_jf = A_jf · B_j / d_read —
// the current output scaled by the inverse of the input fraction consumed.
// For a finished map A_jf equals I_jf and the estimate is exact.
type ProgressScaled struct{}

// Name implements Estimator.
func (ProgressScaled) Name() string { return "progress-scaled" }

// Scale implements Estimator: Î_jf/I_jf = p^γ · B_j / d_read.
func (ProgressScaled) Scale(m *job.MapTask) float64 {
	if m.State == job.TaskDone {
		return 1
	}
	d := m.DRead()
	if d <= 0 || m.Progress <= 0 {
		return 0
	}
	return math.Pow(m.Progress, m.OutputCurve) * m.Size / d
}

// CurrentSize is the Coupling-scheduler baseline: use the in-progress
// intermediate size A_jf as-is, with no scaling. The paper's Section
// II-B-2 example shows how this mis-ranks placements when map progress is
// uneven.
type CurrentSize struct{}

// Name implements Estimator.
func (CurrentSize) Name() string { return "current-size" }

// Scale implements Estimator: A_jf/I_jf = p^γ.
func (CurrentSize) Scale(m *job.MapTask) float64 {
	if m.State == job.TaskDone {
		return 1
	}
	if m.DRead() <= 0 || m.Progress <= 0 {
		return 0
	}
	return math.Pow(m.Progress, m.OutputCurve)
}

// Oracle returns the ground-truth I_jf. It is not realizable in a real
// cluster and exists only as the upper bound for the estimator ablation.
type Oracle struct{}

// Name implements Estimator.
func (Oracle) Name() string { return "oracle" }

// Scale implements Estimator.
func (Oracle) Scale(*job.MapTask) float64 { return 1 }
