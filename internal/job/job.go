// Package job models MapReduce jobs: map tasks bound to input blocks,
// reduce tasks bound to key-space partitions, the intermediate-data matrix
// I (I_jf = bytes map j produces for reduce f), and the per-task progress
// counters (d_read, A_jf) that the paper's estimator consumes.
//
// Task state moves only through the MapTask/ReduceTask Run, Complete and
// Reset methods, over one private setState per task kind. That funnel
// keeps per-job pending, running and done counts, which Assemble seeds
// from the tasks' initial states, so the scheduler's hot questions —
// does a job have a pending task, how many of its tasks run — are O(1)
// instead of rescans of every task. The schedlint funnel analyzer holds
// the fields marked //lint:funnel to their funnel methods.
package job

import (
	"fmt"
	"math"

	"mapsched/internal/hdfs"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
)

// ID identifies a job within a simulation run.
type ID int

// TaskState is the lifecycle of a map or reduce task.
type TaskState int

// Task lifecycle states.
const (
	TaskPending TaskState = iota
	TaskRunning
	TaskDone
)

// String returns a short state label.
func (s TaskState) String() string {
	switch s {
	case TaskPending:
		return "pending"
	case TaskRunning:
		return "running"
	case TaskDone:
		return "done"
	default:
		return fmt.Sprintf("TaskState(%d)", int(s))
	}
}

// Locality classifies where a task ran relative to its data, for the
// Table III / Fig. 7 metrics.
type Locality int

// Locality classes in the paper's terminology.
const (
	LocalityUnknown Locality = iota
	LocalNode                // task on a node storing its data
	LocalRack                // task in the rack of a node storing its data
	Remote                   // neither
)

// String returns the paper's name for the class.
func (l Locality) String() string {
	switch l {
	case LocalNode:
		return "local node"
	case LocalRack:
		return "local rack"
	case Remote:
		return "remote"
	default:
		return "unknown"
	}
}

// Profile captures workload-class behaviour (Wordcount, Terasort, Grep...):
// how much intermediate data maps emit, how compute-heavy the phases are,
// and how uneven partitioning and per-task output rates are.
type Profile struct {
	Name string

	// MapSelectivity is intermediate bytes emitted per input byte.
	// Terasort ≈ 1, Wordcount < 1, Grep ≪ 1.
	MapSelectivity float64

	// MapRate and ReduceRate are per-slot processing rates in bytes/second
	// at the compute phase (input bytes for maps, shuffled bytes for
	// reduces).
	MapRate    float64
	ReduceRate float64

	// PartitionSkew shapes reduce-partition weights: 0 is uniform, larger
	// values concentrate intermediate data on fewer partitions
	// (weight_f ∝ (f+1)^-skew, shuffled).
	PartitionSkew float64

	// SelectivityJitter is the relative spread of per-map output volume
	// around MapSelectivity (uniform in [1-j, 1+j]).
	SelectivityJitter float64

	// OutputCurve is the exponent γ of the per-task output-progress curve
	// A_jf(p) = I_jf · p^γ where p = d_read/B_j. γ = 1 means output is
	// proportional to input read (the estimator becomes exact); γ drawn
	// per task in [1-c, 1+c] gives the estimator realistic error.
	OutputCurveSpread float64

	// ComputeJitter is the relative spread of per-task compute times.
	ComputeJitter float64
}

// Validate reports whether the profile is usable.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("job: profile has no name")
	}
	if p.MapSelectivity < 0 {
		return fmt.Errorf("job: profile %s: negative selectivity", p.Name)
	}
	if p.MapRate <= 0 || p.ReduceRate <= 0 {
		return fmt.Errorf("job: profile %s: rates must be positive", p.Name)
	}
	if p.PartitionSkew < 0 {
		return fmt.Errorf("job: profile %s: negative partition skew", p.Name)
	}
	if p.SelectivityJitter < 0 || p.SelectivityJitter >= 1 {
		return fmt.Errorf("job: profile %s: selectivity jitter %v outside [0,1)", p.Name, p.SelectivityJitter)
	}
	if p.OutputCurveSpread < 0 || p.OutputCurveSpread >= 1 {
		return fmt.Errorf("job: profile %s: output curve spread %v outside [0,1)", p.Name, p.OutputCurveSpread)
	}
	if p.ComputeJitter < 0 || p.ComputeJitter >= 1 {
		return fmt.Errorf("job: profile %s: compute jitter %v outside [0,1)", p.Name, p.ComputeJitter)
	}
	return nil
}

// Spec describes a job to be created: its workload profile, input size and
// task counts.
type Spec struct {
	Name       string
	Profile    Profile
	InputBytes float64
	BlockSize  float64
	NumReduces int
	Submit     sim.Time
	// Placement decides where input blocks live; nil means hdfs.RackAware.
	Placement hdfs.PlacementPolicy
	// Replication is the HDFS replication factor (paper uses 2).
	Replication int
}

// MapTask is one map task M_j.
type MapTask struct {
	Job   *Job
	Index int
	Block hdfs.BlockID
	Size  float64 // B_j, bytes of input

	// Out[f] is I_jf: the bytes this map will have produced for reduce f
	// at completion. Fixed at job creation (ground truth); the scheduler
	// only ever sees progress-based views of it.
	Out []float64

	// OutputCurve is the exponent γ of this task's output-vs-input curve.
	OutputCurve float64

	// Runtime state. State moves only through Run, Complete and Reset,
	// which keep the job's task counts in step; the engine and the
	// placement clients set Locality, and refine Node and Progress,
	// between transitions.
	State    TaskState //lint:funnel
	Node     topology.NodeID
	Locality Locality
	Launch   sim.Time
	Finish   sim.Time

	// Progress accounting: fraction of input consumed, in [0,1].
	// d_read = Progress * Size. The engine refreshes it at the start of
	// every heartbeat on which a reduce decision can read it (some active
	// job has a pending reduce), so it is fresh whenever a reduce decision
	// reads it and may be stale otherwise. Finished maps hold 1.
	Progress float64
}

// TotalOut returns Σ_f I_jf.
func (m *MapTask) TotalOut() float64 {
	var s float64
	for _, v := range m.Out {
		s += v
	}
	return s
}

// DRead returns d_read^j: bytes of input consumed so far.
func (m *MapTask) DRead() float64 { return m.Progress * m.Size }

// setState is the one writer of State: it moves the task between the
// job's per-state map counts.
//
//lint:funnel
func (m *MapTask) setState(st TaskState) {
	m.Job.countMap(m.State, -1)
	m.Job.countMap(st, 1)
	m.State = st
}

// Run marks the task running on node n from time at.
func (m *MapTask) Run(n topology.NodeID, at sim.Time) {
	m.setState(TaskRunning)
	m.Node, m.Launch = n, at
}

// Complete marks the task done at time at with all of its input read.
func (m *MapTask) Complete(at sim.Time) {
	m.setState(TaskDone)
	m.Progress, m.Finish = 1, at
}

// Reset returns the task to pending with no progress and no node.
// Locality, Launch and Finish keep their last values.
func (m *MapTask) Reset() {
	m.setState(TaskPending)
	m.Progress, m.Node = 0, -1
}

// ReduceTask is one reduce task R_f.
type ReduceTask struct {
	Job   *Job
	Index int

	// Runtime state. State moves only through Run, Complete and Reset,
	// which keep the job's task counts in step.
	State    TaskState //lint:funnel
	Node     topology.NodeID
	Locality Locality
	Launch   sim.Time
	Finish   sim.Time

	// ShuffledBytes counts intermediate bytes received so far.
	ShuffledBytes float64
}

// ExpectedInput returns Σ_j I_jf — the ground-truth bytes this reduce will
// eventually receive (used for validation, not visible to schedulers).
func (r *ReduceTask) ExpectedInput() float64 {
	var s float64
	for _, m := range r.Job.Maps {
		s += m.Out[r.Index]
	}
	return s
}

// RunTime returns the task's duration; valid once done.
func (r *ReduceTask) RunTime() float64 { return float64(r.Finish - r.Launch) }

// setState is the one writer of State: it moves the task between the
// job's per-state reduce counts.
//
//lint:funnel
func (r *ReduceTask) setState(st TaskState) {
	r.Job.countReduce(r.State, -1)
	r.Job.countReduce(st, 1)
	r.State = st
}

// Run marks the task running on node n from time at.
func (r *ReduceTask) Run(n topology.NodeID, at sim.Time) {
	r.setState(TaskRunning)
	r.Node, r.Launch = n, at
}

// Complete marks the task done at time at.
func (r *ReduceTask) Complete(at sim.Time) {
	r.setState(TaskDone)
	r.Finish = at
}

// Reset returns the task to pending with no node, locality or shuffled
// bytes. Launch and Finish keep their last values.
func (r *ReduceTask) Reset() {
	r.setState(TaskPending)
	r.Node, r.Locality, r.ShuffledBytes = -1, LocalityUnknown, 0
}

// Job is an instantiated MapReduce job.
type Job struct {
	ID      ID
	Spec    Spec
	Maps    []*MapTask
	Reduces []*ReduceTask

	Submitted sim.Time
	Finished  sim.Time
	// DoneMaps and DoneReds count the tasks in TaskDone. Only the task
	// transition methods and Assemble write them, together with the
	// pending and running counts below.
	DoneMaps int //lint:funnel
	DoneReds int //lint:funnel

	// Tasks in TaskPending and TaskRunning, per kind.
	pendingMaps, runningMaps int
	pendingReds, runningReds int

	// Failed marks a job the engine terminated unsuccessfully — a task
	// exhausted its attempt budget, or every replica of an unread input
	// block was lost. A failed job is no longer scheduled; Done() stays
	// false and Finished records the failure time.
	Failed bool
}

// New instantiates a job: stores its input file, creates one map task per
// block, draws the intermediate matrix I, and creates the reduce tasks.
func New(id ID, spec Spec, store *hdfs.Store, rng *sim.RNG) (*Job, error) {
	if err := spec.Profile.Validate(); err != nil {
		return nil, err
	}
	if spec.InputBytes <= 0 {
		return nil, fmt.Errorf("job %s: input bytes %v must be positive", spec.Name, spec.InputBytes)
	}
	if spec.BlockSize <= 0 {
		return nil, fmt.Errorf("job %s: block size %v must be positive", spec.Name, spec.BlockSize)
	}
	if spec.NumReduces < 1 {
		return nil, fmt.Errorf("job %s: NumReduces = %d, need >= 1", spec.Name, spec.NumReduces)
	}
	repl := spec.Replication
	if repl == 0 {
		repl = 2
	}
	blocks, err := store.AddFile(spec.InputBytes, spec.BlockSize, repl, spec.Placement)
	if err != nil {
		return nil, fmt.Errorf("job %s: %w", spec.Name, err)
	}
	weights := partitionWeights(spec.NumReduces, spec.Profile.PartitionSkew, rng)
	maps := make([]*MapTask, 0, len(blocks))
	for idx, b := range blocks {
		size := store.Size(b)
		sel := rng.Jitter(spec.Profile.MapSelectivity, spec.Profile.SelectivityJitter)
		total := size * sel
		out := make([]float64, spec.NumReduces)
		for f := range out {
			out[f] = total * weights[f]
		}
		curve := rng.Jitter(1.0, spec.Profile.OutputCurveSpread)
		maps = append(maps, &MapTask{
			Index:       idx,
			Block:       b,
			Size:        size,
			Out:         out,
			OutputCurve: curve,
			Node:        -1,
		})
	}
	reduces := make([]*ReduceTask, spec.NumReduces)
	for f := range reduces {
		reduces[f] = &ReduceTask{Index: f, Node: -1}
	}
	return Assemble(id, spec, maps, reduces), nil
}

// Assemble builds a job over the given tasks: it points every task back
// at the job and counts the tasks' states, so the per-state counts start
// equal to a rescan whatever states the tasks were built in. New calls
// it; so do tests that lay out tasks by hand.
func Assemble(id ID, spec Spec, maps []*MapTask, reduces []*ReduceTask) *Job {
	j := &Job{ID: id, Spec: spec, Maps: maps, Reduces: reduces, Submitted: spec.Submit}
	for _, m := range maps {
		m.Job = j
		j.countMap(m.State, 1)
	}
	for _, r := range reduces {
		r.Job = j
		j.countReduce(r.State, 1)
	}
	return j
}

// countMap adds d to the job's count of maps in state st.
//
//lint:funnel
func (j *Job) countMap(st TaskState, d int) {
	switch st {
	case TaskPending:
		j.pendingMaps += d
	case TaskRunning:
		j.runningMaps += d
	case TaskDone:
		j.DoneMaps += d
	}
}

// countReduce adds d to the job's count of reduces in state st.
//
//lint:funnel
func (j *Job) countReduce(st TaskState, d int) {
	switch st {
	case TaskPending:
		j.pendingReds += d
	case TaskRunning:
		j.runningReds += d
	case TaskDone:
		j.DoneReds += d
	}
}

// partitionWeights draws normalized reduce-partition weights: uniform for
// skew 0, otherwise ∝ rank^-skew with ranks shuffled so heavy partitions
// land on random indices.
func partitionWeights(n int, skew float64, rng *sim.RNG) []float64 {
	w := make([]float64, n)
	if skew == 0 {
		for i := range w {
			w[i] = 1 / float64(n)
		}
		return w
	}
	perm := rng.Perm(n)
	var sum float64
	for i := 0; i < n; i++ {
		v := math.Pow(float64(i+1), -skew)
		w[perm[i]] = v
		sum += v
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// NumMaps returns the number of map tasks.
func (j *Job) NumMaps() int { return len(j.Maps) }

// NumReduces returns the number of reduce tasks.
func (j *Job) NumReduces() int { return len(j.Reduces) }

// MapsDone reports whether every map task finished.
func (j *Job) MapsDone() bool { return j.DoneMaps == len(j.Maps) }

// Done reports whether the whole job finished.
func (j *Job) Done() bool {
	return j.MapsDone() && j.DoneReds == len(j.Reduces)
}

// MapProgress returns the fraction of map work completed, counting partial
// progress of running tasks, in [0,1]. Used by the Coupling scheduler to
// pace reduce launches.
func (j *Job) MapProgress() float64 {
	if len(j.Maps) == 0 {
		return 1
	}
	var p float64
	for _, m := range j.Maps {
		switch m.State {
		case TaskDone:
			p++
		case TaskRunning:
			p += m.Progress
		}
	}
	return p / float64(len(j.Maps))
}

// HasPendingMaps reports whether any map task is not yet launched.
func (j *Job) HasPendingMaps() bool { return j.pendingMaps > 0 }

// HasPendingReduces reports whether any reduce task is not yet launched.
func (j *Job) HasPendingReduces() bool { return j.pendingReds > 0 }

// AppendPendingMaps appends the map tasks not yet launched to dst, in
// task-index order, and returns the extended slice. The scan stops at
// the last pending task, so callers reusing dst allocate nothing.
func (j *Job) AppendPendingMaps(dst []*MapTask) []*MapTask {
	left := j.pendingMaps
	for _, m := range j.Maps {
		if left == 0 {
			break
		}
		if m.State == TaskPending {
			dst = append(dst, m)
			left--
		}
	}
	return dst
}

// AppendPendingReduces appends the reduce tasks not yet launched to dst,
// in task-index order, as AppendPendingMaps does for maps.
func (j *Job) AppendPendingReduces(dst []*ReduceTask) []*ReduceTask {
	left := j.pendingReds
	for _, r := range j.Reduces {
		if left == 0 {
			break
		}
		if r.State == TaskPending {
			dst = append(dst, r)
			left--
		}
	}
	return dst
}

// RunningTasks returns the number of currently running map and reduce tasks.
func (j *Job) RunningTasks() (maps, reduces int) { return j.runningMaps, j.runningReds }

// HasReduceOn reports whether the job currently has a running reduce task
// on the node — Algorithm 2 line 1 forbids co-locating two simultaneously
// running reduces of one job (to limit I/O contention and downlink
// congestion). Finished reduces release the node: with ~190 reduces per
// job on 60 nodes the rule could not otherwise be satisfied.
func (j *Job) HasReduceOn(n topology.NodeID) bool {
	if j.runningReds == 0 {
		return false
	}
	for _, r := range j.Reduces {
		if r.State == TaskRunning && r.Node == n {
			return true
		}
	}
	return false
}

// CompletionTime returns the job makespan (finish − submit); valid once done.
func (j *Job) CompletionTime() float64 { return float64(j.Finished - j.Submitted) }
