package experiments

import (
	"fmt"
	"math"

	"mapsched/internal/engine"
	"mapsched/internal/metrics"
	"mapsched/internal/sched"
	"mapsched/internal/sim"
	"mapsched/internal/workload"
)

// OpenLoadFactors is the default load grid of the open-system sweep:
// from a half-loaded cluster to nominal overload.
func OpenLoadFactors() []float64 { return []float64{0.5, 0.7, 0.9, 1.1} }

// OpenTenants returns the sweep's three-tenant mix: a heavy production
// tenant, a mixed analytics tenant and a capped best-effort tenant, so
// the sweep exercises weighted admission, preemption floors and
// queue-cap rejection together.
func OpenTenants() []workload.Tenant {
	return []workload.Tenant{
		{Name: "prod", Weight: 3, Kinds: []workload.Kind{workload.Terasort}, MinGB: 10, MaxGB: 40},
		{Name: "analytics", Weight: 2, Kinds: []workload.Kind{workload.Wordcount, workload.Grep}, MinGB: 10, MaxGB: 30},
		{Name: "besteffort", Weight: 1, Kinds: []workload.Kind{workload.Grep}, MinGB: 5, MaxGB: 20, QueueCap: 6},
	}
}

// OpenPlan returns the sweep's admission configuration: a fixed arrival
// horizon with a warm-up prefix discarded from steady-state metrics, an
// active-job cap sized to the cluster, and preemption on. The cap is
// generous (half the node count) so admission, not the cap, shapes
// throughput: scaled-down jobs carry few tasks each, and a tight cap
// would starve slots long before the cluster saturates.
func OpenPlan(nodes int) workload.ArrivalPlan {
	maxActive := nodes / 2
	if maxActive < 4 {
		maxActive = 4
	}
	return workload.ArrivalPlan{
		Horizon:   600,
		Warmup:    120,
		MaxActive: maxActive,
		Preempt:   true,
	}
}

// CalibrateRates sets each tenant's Poisson rate so the offered load is
// rho times the capacity of the cluster's binding slot pool, split
// across tenants by their admission weights. For each tenant the
// bottleneck is max(mapDemand/mapCapacity, reduceDemand/reduceCapacity)
// — per-job demand in slot-seconds over pool capacity in slot-seconds
// per second — and rate_t = rho * share_t / bottleneck_t, so when every
// tenant binds on the same pool that pool's offered load is exactly
// rho. Demand estimates include the time tasks hold slots waiting on
// the (possibly derated) network.
func CalibrateRates(tenants []workload.Tenant, rho float64, s Setup) []workload.Tenant {
	nodes := s.Engine.Topology.Racks * s.Engine.Topology.NodesPerRack
	mapCap := float64(nodes * s.Engine.MapSlotsPerNode)
	redCap := float64(nodes * s.Engine.ReduceSlotsPerNode)
	linkBps := s.Engine.Topology.HostLinkBps
	if s.Engine.Topology.DiskBps > 0 && s.Engine.Topology.DiskBps < linkBps {
		linkBps = s.Engine.Topology.DiskBps
	}
	// A busy node's link is shared by its concurrent transfers — the
	// shuffle pulls of its reduce slots plus a remote map fetch — so the
	// bandwidth one task sees is a fraction of the host link.
	linkBps /= float64(s.Engine.ReduceSlotsPerNode + 1)
	var sumW float64
	for _, t := range tenants {
		w := t.Weight
		if w <= 0 {
			w = 1
		}
		sumW += w
	}
	out := make([]workload.Tenant, len(tenants))
	for i, t := range tenants {
		w := t.Weight
		if w <= 0 {
			w = 1
		}
		mapSec, redSec := t.MeanServiceDemand(s.Workload, engine.TaskOverhead, linkBps)
		bottleneck := mapSec / mapCap
		if r := redSec / redCap; r > bottleneck {
			bottleneck = r
		}
		t.Rate = rho * (w / sumW) / bottleneck
		out[i] = t
	}
	return out
}

// OpenSystem expands an arrival plan into its deterministic arrival
// stream for the seed and workload options, and returns it with the
// tenants' admission policies as the engine's open-system mode.
func OpenSystem(plan workload.ArrivalPlan, tenants []workload.Tenant, seed int64, wo workload.Options) (engine.OpenSystem, error) {
	arrivals, err := workload.BuildArrivals(plan, tenants, seed, wo)
	if err != nil {
		return engine.OpenSystem{}, err
	}
	open := engine.OpenSystem{
		MaxActive: plan.MaxActive,
		Preempt:   plan.Preempt,
		Warmup:    plan.Warmup,
	}
	for _, t := range tenants {
		open.Tenants = append(open.Tenants, engine.TenantPolicy{
			Name:     t.Name,
			Weight:   t.Weight,
			QueueCap: t.QueueCap,
		})
	}
	open.Arrivals = make([]engine.Arrival, len(arrivals))
	for i, a := range arrivals {
		open.Arrivals[i] = engine.Arrival{At: sim.Time(a.At), Tenant: a.Tenant, Spec: a.Spec}
	}
	return open, nil
}

// RunOpen is the open-system leaf: it expands the plan into the
// deterministic arrival stream, configures the engine's open-system
// mode and runs one simulation. Like RunBatch it holds a worker-gate
// slot for the duration, so composite sweeps fan out freely while at
// most SetMaxWorkers simulations execute at once.
func (s Setup) RunOpen(plan workload.ArrivalPlan, tenants []workload.Tenant, b sched.Builder) (*engine.Result, error) {
	open, err := OpenSystem(plan, tenants, s.Engine.Seed, s.Workload)
	if err != nil {
		return nil, err
	}
	cfg := s.Engine
	cfg.Open = open
	run, err := engine.New(cfg, nil, b)
	if err != nil {
		return nil, err
	}
	sem := workerSem
	sem <- struct{}{}
	defer func() { <-sem }()
	return run.Run()
}

// OpenSweepPoint is one (load factor, scheduler) cell of the sweep.
type OpenSweepPoint struct {
	Rho       float64
	Scheduler string

	Arrived    int
	Admitted   int
	Rejected   int
	Preempted  int
	SteadyDone int

	JCTP50        float64 // steady-state job completion time quantiles
	JCTP95        float64
	JCTP99        float64
	QueueDelayP95 float64
	Jain          float64 // fairness over weight-normalized completions
	MapUtil       float64 // steady-state map-slot utilization
}

// OpenSweep runs the open-system workload under every scheduler across
// the load-factor grid, using the default OpenPlan for the setup's
// cluster size.
func OpenSweep(s Setup, rhos []float64) ([]OpenSweepPoint, error) {
	nodes := s.Engine.Topology.Racks * s.Engine.Topology.NodesPerRack
	return OpenSweepAt(s, OpenPlan(nodes), rhos)
}

// OpenSweepAt runs the open-system workload under every scheduler
// across the load-factor grid with an explicit admission plan. All
// (rho x scheduler) cells run in parallel; results are in grid order
// and identical for any worker count, since every simulation is
// self-contained and its arrival stream depends only on the seed and
// tenant names.
func OpenSweepAt(s Setup, plan workload.ArrivalPlan, rhos []float64) ([]OpenSweepPoint, error) {
	if len(rhos) == 0 {
		rhos = OpenLoadFactors()
	}
	kinds := SchedulerKinds()
	return runParallel(len(rhos)*len(kinds), func(i int) (OpenSweepPoint, error) {
		rho, k := rhos[i/len(kinds)], kinds[i%len(kinds)]
		tenants := CalibrateRates(OpenTenants(), rho, s)
		res, err := s.RunOpen(plan, tenants, s.BuilderFor(k))
		if err != nil {
			return OpenSweepPoint{}, fmt.Errorf("rho %.1f under %v: %w", rho, k, err)
		}
		p := OpenSweepPoint{
			Rho:       rho,
			Scheduler: k.String(),
			Preempted: res.Preemptions,
			Rejected:  res.RejectedJobs,
			Jain:      res.JainFairness,
			MapUtil:   res.SteadyMapUtilization,
		}
		var delays []float64
		for _, tr := range res.Tenants {
			p.Arrived += tr.Arrived
			p.Admitted += tr.Admitted
			p.SteadyDone += tr.SteadyCompleted
			if tr.SteadyCompleted > 0 {
				delays = append(delays, tr.QueueDelayP95)
			}
		}
		jcts := metrics.NewCDF(res.SteadyJCTs())
		if jcts.N() > 0 {
			p.JCTP50 = jcts.Quantile(0.50)
			p.JCTP95 = jcts.Quantile(0.95)
			p.JCTP99 = jcts.Quantile(0.99)
		}
		// Worst tenant's p95 queueing delay: the SLO the admission layer
		// is supposed to protect.
		for _, d := range delays {
			if d > p.QueueDelayP95 {
				p.QueueDelayP95 = d
			}
		}
		return p, nil
	})
}

// OpenSweepReport renders the sweep as a per-(rho, scheduler) table.
func OpenSweepReport(points []OpenSweepPoint) Report {
	t := metrics.NewTable("Rho", "Scheduler", "Arrived", "Admit/Rej/Pre", "SteadyDone", "JCT p50/p95/p99", "QDelay p95", "Jain", "Map util")
	for _, p := range points {
		jct := "-"
		if p.SteadyDone > 0 && !math.IsNaN(p.JCTP50) {
			jct = fmt.Sprintf("%.0f/%.0f/%.0fs", p.JCTP50, p.JCTP95, p.JCTP99)
		}
		t.AddRow(fmt.Sprintf("%.1f", p.Rho), p.Scheduler, p.Arrived,
			fmt.Sprintf("%d/%d/%d", p.Admitted, p.Rejected, p.Preempted),
			p.SteadyDone, jct, fmt.Sprintf("%.1fs", p.QueueDelayP95),
			fmt.Sprintf("%.3f", p.Jain), fmt.Sprintf("%.2f", p.MapUtil))
	}
	return Report{
		ID:    "opensys",
		Title: "Open-system multi-tenant sweep (3 tenants, weighted admission, preemption)",
		Body:  t.String(),
	}
}
