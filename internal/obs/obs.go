// Package obs is the scheduler-decision observability layer: a typed
// event stream emitted by the simulation engine, the task-level
// schedulers and the flow network, with pluggable sinks (JSONL log,
// streaming metrics summary).
//
// Design constraints:
//
//   - Zero overhead when disabled. Every emission site is guarded by
//     Stream.Enabled() — a nil-receiver-safe check that compiles to two
//     comparisons — and builds the Event value only when a sink is
//     attached. With no observer the simulation runs the exact same
//     instruction stream as before the layer existed.
//   - No influence on decisions. Observers never touch the RNG, the
//     event queue or any scheduler state; a run with observers attached
//     is bit-identical to the same run without them.
//   - Deterministic. Events are emitted in simulation order, carry the
//     simulated timestamp, and serialize with a fixed field order, so a
//     fixed seed reproduces a byte-identical event log.
package obs

// Type enumerates the event kinds of the stream.
type Type string

// Event kinds. Scheduler decisions (task_offer / task_assign /
// task_skip) carry the Formula 1–5 breakdown in Decision; engine
// lifecycle events (job_*, task_start/finish, node_fail, task_relaunch)
// describe execution; flow_* events trace the network.
const (
	JobSubmit    Type = "job_submit"
	JobFinish    Type = "job_finish"
	TaskOffer    Type = "task_offer"    // a candidate was costed for an offered slot
	TaskAssign   Type = "task_assign"   // the scheduler placed a task
	TaskSkip     Type = "task_skip"     // the scheduler declined the slot
	TaskStart    Type = "task_start"    // the engine launched the task
	TaskFinish   Type = "task_finish"   // the task completed
	NodeFail     Type = "node_fail"     // a node permanently failed (crash instant)
	TaskRelaunch Type = "task_relaunch" // a task re-queued by failure recovery
	FlowStart    Type = "flow_start"
	FlowFinish   Type = "flow_finish"

	// No longer emitted: a flow's max-min share follows from the
	// flow_start, flow_finish and link events before it. The constant
	// stays while cmd/mrbench counts it (topology.rate_updates).
	FlowRate Type = "flow_rate"

	// Fault-injection and recovery events (internal/faults + engine).
	FailureDetected Type = "failure_detected" // heartbeat-expiry declared the node dead
	NodeSlow        Type = "node_slow"        // compute-rate degradation toggled
	LinkDegrade     Type = "link_degrade"     // a node's access-link capacity scaled
	AttemptFail     Type = "attempt_fail"     // a task attempt failed transiently
	NodeBlacklist   Type = "node_blacklist"   // repeat-offender node removed from offers
	ReplicaLoss     Type = "replica_loss"     // HDFS replicas removed from a node
	JobFail         Type = "job_fail"         // a job terminated unsuccessfully

	// Placement-service invariant audit events, emitted by the background
	// audit harness of the internal/placement stress tests (DESIGN.md §16).
	AuditPass  Type = "audit_pass"  // invariant audit found zero drift
	AuditDrift Type = "audit_drift" // invariant audit detected state drift (Reason lists it)

	// Open-system workload events (engine.Config.Open; DESIGN.md §18).
	// Reason carries the tenant name on job_arrival/job_admit.
	JobArrival      Type = "job_arrival"      // a job reached its tenant queue
	JobAdmit        Type = "job_admit"        // admission released a queued job (Wait = queueing delay)
	JobReject       Type = "job_reject"       // a full tenant queue turned the arrival away
	JobPreempt      Type = "job_preempt"      // kill-and-requeue reclaimed an over-share tenant's job
	NodeUnblacklist Type = "node_unblacklist" // the last holding job released a blacklisted node
)

// TaskRef identifies one task within its job.
type TaskRef struct {
	Kind  string `json:"kind"` // "map" or "reduce"
	Index int    `json:"index"`
}

// Decision is the Formula 1–5 breakdown behind one probabilistic
// scheduling decision: placement cost C (Formulas 1/3), average cost
// C_avg over available nodes, probability P = 1 − exp(−C_avg/C)
// (Formulas 4–5), the configured threshold P_min, and how the Bernoulli
// gate resolved. Baseline schedulers fill only the fields they use.
type Decision struct {
	C    float64 `json:"c"`
	CAvg float64 `json:"c_avg"`
	P    float64 `json:"p"`
	PMin float64 `json:"p_min"`
	// Draw records the gate outcome: "local" (C = 0, assigned
	// instantly), "accept"/"decline" (Bernoulli draw), "deterministic"
	// (ablation mode, no draw), "below_pmin" (threshold skip), or ""
	// on a task_offer event where the gate has not run yet.
	Draw string `json:"draw,omitempty"`
}

// FlowInfo describes a network flow event.
type FlowInfo struct {
	ID         int64   `json:"id"`
	Src        int     `json:"src"` // -1 when the flow is not node-tagged
	Dst        int     `json:"dst"`
	Bytes      float64 `json:"bytes"` // original transfer size; 0 for persistent flows
	Rate       float64 `json:"rate"`  // current share, bytes/second
	Links      []int   `json:"links,omitempty"`
	Persistent bool    `json:"persistent,omitempty"`
}

// Event is one observation. Fields not applicable to the event type are
// zero and, where the encoding allows, omitted.
type Event struct {
	T        float64   `json:"t"` // simulated time, seconds
	Type     Type      `json:"type"`
	Node     int       `json:"node"` // the node concerned; -1 when n/a
	Job      string    `json:"job,omitempty"`
	Task     *TaskRef  `json:"task,omitempty"`
	Locality string    `json:"locality,omitempty"`
	Reason   string    `json:"reason,omitempty"`
	Wait     float64   `json:"wait,omitempty"`   // submit→launch queue wait (task_start)
	Dur      float64   `json:"dur,omitempty"`    // duration (task_finish, job_finish)
	Factor   float64   `json:"factor,omitempty"` // slowdown/degradation factor (node_slow, link_degrade)
	Decision *Decision `json:"decision,omitempty"`
	Flow     *FlowInfo `json:"flow,omitempty"`
}

// Observer consumes the event stream. Implementations must not mutate
// simulation state; they are called synchronously from the event loop.
type Observer interface {
	Observe(Event)
}

// Stream is the emission point shared by the engine, the schedulers and
// the flow network. A nil *Stream is valid and permanently disabled, so
// components that may run outside a full simulation (unit tests,
// benchmarks) need no special casing.
type Stream struct {
	obs []Observer
}

// NewStream returns an empty (disabled) stream.
func NewStream() *Stream { return &Stream{} }

// Attach adds a sink. Nil observers are ignored.
func (s *Stream) Attach(o Observer) {
	if s == nil || o == nil {
		return
	}
	s.obs = append(s.obs, o)
}

// Enabled reports whether any sink is attached. Emission sites guard on
// this before building an Event, keeping the disabled path free of
// allocations and field marshalling.
func (s *Stream) Enabled() bool { return s != nil && len(s.obs) > 0 }

// Emit delivers e to every attached sink in attach order.
func (s *Stream) Emit(e Event) {
	if s == nil {
		return
	}
	for _, o := range s.obs {
		o.Observe(e)
	}
}

// Func adapts a function to the Observer interface.
type Func func(Event)

// Observe implements Observer.
func (f Func) Observe(e Event) { f(e) }
