// Open-system workload generation: deterministic Poisson- and
// trace-driven job arrival streams over multiple tenants. The closed
// Table II batches submit everything up front and run to completion;
// an ArrivalPlan instead describes jobs entering the cluster over a
// horizon, the regime the engine's open-system mode (tenant queues,
// weighted admission, preemption) consumes.
//
// Determinism contract: every tenant draws from its own RNG stream,
// forked off the run seed by tenant name ("tenant:<name>"). Forking is
// label-based, not draw-count-based, so adding, removing or reordering
// a tenant never shifts another tenant's arrival times or job mix —
// the same property the engine's subsystem streams rely on.
package workload

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"mapsched/internal/job"
	"mapsched/internal/sim"
)

// Tenant describes one traffic source of an open-system run: its
// admission weight, its Poisson arrival rate and the job mix it draws.
type Tenant struct {
	// Name identifies the tenant; it keys the RNG fork and the engine's
	// per-tenant queue, so it must be unique within a plan.
	Name string
	// Weight is the tenant's admission share (default 1): admission
	// control picks the queued tenant with the smallest active/weight
	// ratio, and preemption enforces weighted floors of the active cap.
	Weight float64
	// Rate is the Poisson arrival intensity in jobs per simulated
	// second; 0 means the tenant only receives trace arrivals.
	Rate float64
	// Kinds is the application mix sampled uniformly per arrival; empty
	// means the paper's Table II trio (Wordcount, Terasort, Grep).
	Kinds []Kind
	// MinGB and MaxGB bound the uniform input-size draw; zero values
	// default to 10–50 GB (before Options.Scale).
	MinGB, MaxGB int
	// QueueCap bounds the tenant's pending queue; arrivals beyond it are
	// rejected by admission control. 0 means unbounded.
	QueueCap int
}

// Validate reports whether the tenant definition is usable.
func (t Tenant) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("workload: tenant with empty name")
	}
	if strings.ContainsAny(t.Name, ";:,= \t") {
		return fmt.Errorf("workload: tenant name %q contains reserved characters", t.Name)
	}
	// The finite checks are written so NaN fails them too.
	if !(t.Weight >= 0 && t.Weight <= math.MaxFloat64) {
		return fmt.Errorf("workload: tenant %s: weight %v, want a finite number >= 0", t.Name, t.Weight)
	}
	if !(t.Rate >= 0 && t.Rate <= math.MaxFloat64) {
		return fmt.Errorf("workload: tenant %s: rate %v, want a finite number >= 0", t.Name, t.Rate)
	}
	if t.MinGB < 0 || t.MaxGB < 0 || (t.MaxGB > 0 && t.MaxGB < t.MinGB) {
		return fmt.Errorf("workload: tenant %s: bad input-size range [%d,%d] GB", t.Name, t.MinGB, t.MaxGB)
	}
	if t.QueueCap < 0 {
		return fmt.Errorf("workload: tenant %s: negative queue cap %d", t.Name, t.QueueCap)
	}
	return nil
}

// sizeRange returns the effective input-size bounds in GB.
func (t Tenant) sizeRange() (int, int) {
	lo, hi := t.MinGB, t.MaxGB
	if lo == 0 && hi == 0 {
		lo, hi = 10, 50
	}
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// kinds returns the effective application mix.
func (t Tenant) kinds() []Kind {
	if len(t.Kinds) > 0 {
		return t.Kinds
	}
	return Kinds()
}

// MeanServiceDemand estimates the expected per-job demand of one
// generated job of this tenant on each slot pool, in slot-seconds: map
// and reduce compute over the mean input size, averaged across the
// tenant's application mix, plus per-task overhead. When linkBps > 0
// the estimate also charges the time tasks hold their slot waiting on
// network transfers (remote map fetches, shuffle pulls) at that
// per-node bandwidth — on bandwidth-derated testbeds that term
// dominates compute. Experiments use the split to calibrate Poisson
// rates to a target load factor against whichever slot pool binds.
func (t Tenant) MeanServiceDemand(o Options, taskOverhead, linkBps float64) (mapSec, redSec float64) {
	lo, hi := t.sizeRange()
	meanGB := float64(lo+hi) / 2
	input := meanGB * 1e9 / float64(o.Scale)
	mix := t.kinds()
	for _, k := range mix {
		p := ProfileFor(k)
		maps := scaleCount(int(meanGB*1e9/115e6)+10, o.Scale)
		reduces := scaleCount(160, o.Scale)
		m := input/p.MapRate + float64(taskOverhead*float64(maps))
		r := input*p.MapSelectivity/p.ReduceRate + float64(taskOverhead*float64(reduces))
		if linkBps > 0 {
			// About half the maps fetch their input remotely; every
			// reduce pulls its full shuffle partition over the network.
			m += 0.5 * input / linkBps
			r += input * p.MapSelectivity / linkBps
		}
		mapSec += m
		redSec += r
	}
	n := float64(len(mix))
	return mapSec / n, redSec / n
}

// TraceArrival is one scripted arrival of a trace-driven stream.
type TraceArrival struct {
	At     float64 // arrival instant, simulated seconds
	Tenant string  // empty means the plan's first tenant
	Def    JobDef  // instantiated with the plan's Options; Name is kept verbatim
}

// ArrivalPlan describes an open-system run: how long arrivals keep
// coming, how much of the start is discarded as warm-up, and how the
// admission layer is configured.
type ArrivalPlan struct {
	// Horizon bounds Poisson arrival generation, in simulated seconds.
	// Trace arrivals may land beyond it.
	Horizon float64
	// Warmup truncates steady-state metrics: jobs arriving before this
	// instant are excluded from JCT/queue-delay/fairness accounting.
	Warmup float64
	// MaxActive caps concurrently admitted jobs across all tenants;
	// 0 means unbounded (every arrival is admitted immediately).
	MaxActive int
	// Preempt enables kill-and-requeue preemption when a tenant exceeds
	// its weighted share of MaxActive. Requires MaxActive > 0.
	Preempt bool
	// Trace lists scripted arrivals merged with the Poisson streams.
	Trace []TraceArrival
}

// Validate reports whether the plan is usable.
func (p ArrivalPlan) Validate() error {
	// The finite checks are written so NaN fails them too.
	if !(p.Horizon >= 0 && p.Horizon <= math.MaxFloat64) {
		return fmt.Errorf("workload: arrival horizon %v, want a finite number >= 0", p.Horizon)
	}
	if !(p.Warmup >= 0 && p.Warmup <= math.MaxFloat64) {
		return fmt.Errorf("workload: arrival warmup %v, want a finite number >= 0", p.Warmup)
	}
	if p.MaxActive < 0 {
		return fmt.Errorf("workload: negative MaxActive %d", p.MaxActive)
	}
	if p.Preempt && p.MaxActive == 0 {
		return fmt.Errorf("workload: preemption requires MaxActive > 0")
	}
	for i, tr := range p.Trace {
		if !(tr.At >= 0 && tr.At <= math.MaxFloat64) {
			return fmt.Errorf("workload: trace arrival %d at %v, want a finite time >= 0", i, tr.At)
		}
	}
	return nil
}

// maxPoissonArrivals bounds the expected size of the generated stream,
// Σ rate·horizon over the tenants. The open-system experiments expect
// tens to hundreds of arrivals; a plan far beyond this bound is a typo
// that would otherwise spend minutes and gigabytes generating jobs no
// simulation could run.
const maxPoissonArrivals = 100_000

// Arrival is one job entering the open system: the instant, the tenant
// it bills to, and the fully instantiated spec.
type Arrival struct {
	At     float64
	Tenant string
	Spec   job.Spec
}

// BuildArrivals expands a plan into the deterministic, time-sorted
// arrival stream the engine consumes. Poisson streams draw from
// per-tenant forked RNGs (seed ⊕ "tenant:<name>"), so the stream of one
// tenant is independent of every other tenant's presence. Trace
// arrivals keep their JobDef names verbatim (so a single-tenant trace
// reproduces a closed batch exactly); Poisson arrivals get unique
// "<tenant>-<seq>_<kind>_<size>GB" names.
func BuildArrivals(plan ArrivalPlan, tenants []Tenant, seed int64, o Options) ([]Arrival, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if len(tenants) == 0 {
		tenants = []Tenant{{Name: "default"}}
	}
	byName := make(map[string]Tenant, len(tenants))
	for _, t := range tenants {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		if _, dup := byName[t.Name]; dup {
			return nil, fmt.Errorf("workload: duplicate tenant %q", t.Name)
		}
		byName[t.Name] = t
	}
	var expect float64
	for _, t := range tenants {
		expect += float64(t.Rate * plan.Horizon)
	}
	if expect > maxPoissonArrivals {
		return nil, fmt.Errorf("workload: tenant rates over the %v s arrival horizon expect %.4g Poisson arrivals, above the limit of %d",
			plan.Horizon, expect, maxPoissonArrivals)
	}

	var out []Arrival
	// Trace arrivals first, in script order, so a same-instant tie
	// between a scripted and a generated arrival resolves to the script.
	for i, tr := range plan.Trace {
		name := tr.Tenant
		if name == "" {
			name = tenants[0].Name
		}
		if _, ok := byName[name]; !ok {
			return nil, fmt.Errorf("workload: trace arrival %d names unknown tenant %q", i, name)
		}
		spec, err := tr.Def.Spec(0, o)
		if err != nil {
			return nil, err
		}
		spec.Submit = sim.Time(tr.At)
		out = append(out, Arrival{At: tr.At, Tenant: name, Spec: spec})
	}
	// Poisson streams per tenant, in declaration order.
	for _, t := range tenants {
		if t.Rate <= 0 || plan.Horizon <= 0 {
			continue
		}
		rng := sim.NewRNG(seed).Fork("tenant:" + t.Name)
		lo, hi := t.sizeRange()
		mix := t.kinds()
		at := rng.ExpFloat64() / t.Rate
		for seq := 1; at < plan.Horizon; seq++ {
			gb := lo + rng.Intn(hi-lo+1)
			maps := int(float64(gb)*1e9/115e6) + rng.Intn(20)
			if maps < 1 {
				maps = 1
			}
			def := JobDef{
				JobID:   fmt.Sprintf("%s-%03d", t.Name, seq),
				Kind:    mix[rng.Intn(len(mix))],
				InputGB: gb,
				Maps:    maps,
				Reduces: 120 + rng.Intn(81),
			}
			spec, err := def.Spec(0, o)
			if err != nil {
				return nil, err
			}
			spec.Name = fmt.Sprintf("%s-%03d_%s", t.Name, seq, def.Name())
			spec.Submit = sim.Time(at)
			out = append(out, Arrival{At: at, Tenant: t.Name, Spec: spec})
			at += rng.ExpFloat64() / t.Rate
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].At < out[b].At })
	return out, nil
}

// ParseTenants parses the command-line tenant DSL: semicolon-separated
// tenants, each "name[:key=value,...]" with keys weight, rate, cap,
// min, max — e.g. "gold:weight=3,rate=0.05;best-effort:rate=0.02,cap=8".
func ParseTenants(spec string) ([]Tenant, error) {
	var out []Tenant
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, _ := strings.Cut(part, ":")
		t := Tenant{Name: strings.TrimSpace(name)}
		if rest != "" {
			for _, kv := range strings.Split(rest, ",") {
				key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
				if !ok {
					return nil, fmt.Errorf("workload: tenant %s: bad attribute %q (want key=value)", t.Name, kv)
				}
				f, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("workload: tenant %s: bad %s value %q", t.Name, key, val)
				}
				switch key {
				case "weight":
					t.Weight = f
				case "rate":
					t.Rate = f
				case "cap":
					t.QueueCap = int(f)
				case "min":
					t.MinGB = int(f)
				case "max":
					t.MaxGB = int(f)
				default:
					return nil, fmt.Errorf("workload: tenant %s: unknown attribute %q", t.Name, key)
				}
			}
		}
		if err := t.Validate(); err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload: empty tenant spec")
	}
	return out, nil
}

// ParseArrivalPlan parses the command-line arrival DSL: comma-separated
// key=value pairs with keys horizon, warmup, maxactive, preempt — e.g.
// "horizon=600,warmup=60,maxactive=12,preempt=1".
func ParseArrivalPlan(spec string) (ArrivalPlan, error) {
	var p ArrivalPlan
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return p, fmt.Errorf("workload: bad arrival attribute %q (want key=value)", kv)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return p, fmt.Errorf("workload: bad %s value %q", key, val)
		}
		switch key {
		case "horizon":
			p.Horizon = f
		case "warmup":
			p.Warmup = f
		case "maxactive":
			p.MaxActive = int(f)
		case "preempt":
			p.Preempt = f != 0
		default:
			return p, fmt.Errorf("workload: unknown arrival attribute %q", key)
		}
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}
