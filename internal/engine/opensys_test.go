package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"mapsched/internal/faults"
	"mapsched/internal/job"
	"mapsched/internal/obs"
	"mapsched/internal/sched"
	"mapsched/internal/sim"
	"mapsched/internal/topology"
	"mapsched/internal/workload"
)

// toEngineArrivals converts a workload arrival stream to the engine's
// representation (the same conversion the façade performs).
func toEngineArrivals(arr []workload.Arrival) []Arrival {
	out := make([]Arrival, len(arr))
	for i, a := range arr {
		out[i] = Arrival{At: sim.Time(a.At), Tenant: a.Tenant, Spec: a.Spec}
	}
	return out
}

// decisionJSONL runs the simulation with a JSONL sink attached and
// returns the stream minus flow_* and open-system bookkeeping events —
// the closed-system-comparable decision stream.
func decisionJSONL(t *testing.T, s *Simulation) (string, *Result) {
	t.Helper()
	var buf bytes.Buffer
	log := obs.NewJSONL(&buf)
	if err := s.Attach(log); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if line == "" {
			continue
		}
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &head); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		switch {
		case strings.HasPrefix(head.Type, "flow_"):
			continue
		case head.Type == "job_arrival" || head.Type == "job_admit" ||
			head.Type == "job_reject" || head.Type == "job_preempt" ||
			head.Type == "node_unblacklist":
			continue
		}
		out.WriteString(line)
	}
	return out.String(), res
}

// TestOpenArrivalsT0MatchFixedBatch is the engine-level nesting proof:
// a single-tenant arrival stream with every arrival at t = 0 produces
// the exact event stream and result of the fixed-batch path submitting
// the same specs at t = 0.
func TestOpenArrivalsT0MatchFixedBatch(t *testing.T) {
	o := workload.Options{Scale: 40, Replication: 2, SubmitStagger: 0}
	defs := []workload.JobDef{
		{JobID: "01", Kind: workload.Wordcount, InputGB: 10, Maps: 88, Reduces: 157},
		{JobID: "11", Kind: workload.Terasort, InputGB: 10, Maps: 143, Reduces: 190},
		{JobID: "21", Kind: workload.Grep, InputGB: 10, Maps: 87, Reduces: 148},
	}
	specs, err := workload.Specs(defs, o)
	if err != nil {
		t.Fatal(err)
	}

	fixed, err := New(tinyConfig(), specs, sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
	if err != nil {
		t.Fatal(err)
	}
	fixedStream, fixedRes := decisionJSONL(t, fixed)

	cfg := tinyConfig()
	arrivals := make([]Arrival, len(specs))
	for i, sp := range specs {
		arrivals[i] = Arrival{At: 0, Tenant: "default", Spec: sp}
	}
	cfg.Open = OpenSystem{Arrivals: arrivals}
	open, err := New(cfg, nil, sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
	if err != nil {
		t.Fatal(err)
	}
	openStream, openRes := decisionJSONL(t, open)

	if fixedStream != openStream {
		t.Fatal("t=0 arrival stream diverged from the fixed-batch decision stream")
	}
	if fixedRes.Makespan != openRes.Makespan {
		t.Fatalf("makespan: fixed %v, open %v", fixedRes.Makespan, openRes.Makespan)
	}
	if len(fixedRes.Jobs) != len(openRes.Jobs) {
		t.Fatalf("jobs: fixed %d, open %d", len(fixedRes.Jobs), len(openRes.Jobs))
	}
	for i := range fixedRes.Jobs {
		if fixedRes.Jobs[i] != openRes.Jobs[i] {
			t.Fatalf("job %d differs:\nfixed: %+v\nopen:  %+v",
				i, fixedRes.Jobs[i], openRes.Jobs[i])
		}
	}
	if fixedRes.Events != openRes.Events {
		// The open path fires one arrival event per job where the fixed
		// path fires one submission event — counts must still agree.
		t.Fatalf("event counts: fixed %d, open %d", fixedRes.Events, openRes.Events)
	}
}

// longStream builds a 500-job single-tenant scripted arrival stream of
// small jobs, the long-horizon workload the state-release regression
// tests run under.
func longStream(t *testing.T, n int, gap float64) []Arrival {
	t.Helper()
	o := workload.Options{Scale: 4, Replication: 2, SubmitStagger: 0}
	plan := workload.ArrivalPlan{}
	for i := 0; i < n; i++ {
		plan.Trace = append(plan.Trace, workload.TraceArrival{
			At: float64(i) * gap,
			Def: workload.JobDef{
				JobID: fmt.Sprintf("%03d", i), Kind: workload.Wordcount,
				InputGB: 1, Maps: 4, Reduces: 2,
			},
		})
	}
	arr, err := workload.BuildArrivals(plan, nil, 1, o)
	if err != nil {
		t.Fatal(err)
	}
	return toEngineArrivals(arr)
}

// TestBlacklistReleasedAcrossArrivalStream is the regression test for
// the unbounded blacklist accumulation bug: per-(job, node) failure
// tallies and the blacklist entries they justified used to survive job
// teardown forever, so a long arrival stream eventually tripped the
// half-cluster cap with entries belonging to long-finished jobs. After
// a 500-job stream under an aggressive failure plan, every per-job
// tally must be gone and every blacklist entry released.
func TestBlacklistReleasedAcrossArrivalStream(t *testing.T) {
	cfg := tinyConfig()
	cfg.Open = OpenSystem{Arrivals: longStream(t, 500, 3)}
	cfg.Faults = faults.Plan{TaskFailProb: 0.25, BlacklistAfter: 2, MaxTaskAttempts: 8}
	s, err := New(cfg, nil, sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d jobs unfinished", res.Unfinished)
	}
	if res.BlacklistedNodes == 0 {
		t.Fatal("no node was ever blacklisted; the plan is too gentle to exercise the release path")
	}
	if ids := leakedRecords(s); len(ids) > 0 {
		t.Errorf("%d records of ended jobs leaked (running tasks, retry and blacklist tallies or tenancy), first job %d", len(ids), ids[0])
	}
	for i := 0; i < s.state.Size(); i++ {
		if s.state.Node(topology.NodeID(i)).Blacklisted() {
			t.Errorf("node %d stayed blacklisted past its jobs", i)
		}
	}
	if n := len(s.blacklistHolds); n != 0 {
		t.Errorf("%d blacklist hold counts leaked", n)
	}
}

// TestUnblacklistRestoresCandidacy checks the release is visible to the
// scheduler: once the last holding job ends, the node's Blacklisted flag
// is off and a node_unblacklist event was emitted for it.
func TestUnblacklistRestoresCandidacy(t *testing.T) {
	cfg := tinyConfig()
	cfg.Open = OpenSystem{Arrivals: longStream(t, 200, 3)}
	cfg.Faults = faults.Plan{TaskFailProb: 0.35, BlacklistAfter: 2, MaxTaskAttempts: 10}
	s, err := New(cfg, nil, sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
	if err != nil {
		t.Fatal(err)
	}
	blk, unblk := 0, 0
	if err := s.Attach(obs.Func(func(e obs.Event) {
		switch e.Type {
		case obs.NodeBlacklist:
			blk++
		case obs.NodeUnblacklist:
			unblk++
		}
	})); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if blk == 0 {
		t.Fatal("no blacklisting occurred")
	}
	if blk != unblk {
		t.Fatalf("%d blacklist events but %d releases", blk, unblk)
	}
	for i := 0; i < s.topo.Size(); i++ {
		if s.state.Node(topology.NodeID(i)).Blacklisted() {
			t.Fatalf("node %d still flagged blacklisted after the run", i)
		}
	}
}

// TestOpenSystemPoolReset verifies the pooled-record reset discipline
// under mid-run injection and preemption: after an open-system run in
// which jobs were admitted, preempted (tearing attempts down mid-life)
// and re-admitted across generations, every free-listed record must be
// fully reset per the pool.go contract.
func TestOpenSystemPoolReset(t *testing.T) {
	cfg := tinyConfig()
	cfg.Open = OpenSystem{
		Arrivals:  longStream(t, 80, 2),
		Tenants:   []TenantPolicy{{Name: "default", Weight: 1}},
		MaxActive: 3,
		Preempt:   true,
	}
	cfg.Faults = faults.Plan{TaskFailProb: 0.1, BlacklistAfter: 3, MaxTaskAttempts: 8}
	s, err := New(cfg, nil, sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, att := range s.freeAtts[job.MapKind] {
		if att.task != (taskRef{}) || att.fetch != nil ||
			att.computeEv.Queued() || att.failEv.Queued() || att.dead ||
			att.fetchDone || att.computeDone || att.computeDur != 0 {
			t.Fatalf("pooled map attempt %d not reset: %+v", i, att)
		}
		if att.fetchFn == nil || att.computeFn == nil || att.failFn == nil {
			t.Fatalf("pooled map attempt %d lost its bound callbacks", i)
		}
	}
	for i, att := range s.freeAtts[job.ReduceKind] {
		if att.task != (taskRef{}) || att.computeEv.Queued() || att.dead ||
			att.computing || att.failFrac != 0 ||
			len(att.pendingSrc) != 0 || len(att.flights) != 0 ||
			len(att.got) != 0 || len(att.queue) != 0 {
			t.Fatalf("pooled reduce attempt %d not reset: %+v", i, att)
		}
		if att.computeFn == nil || att.failFn == nil {
			t.Fatalf("pooled reduce attempt %d lost its bound callbacks", i)
		}
	}
	for i, b := range s.freeBuckets {
		if b.bytes != 0 || len(b.maps) != 0 {
			t.Fatalf("pooled bucket %d not reset: %+v", i, b)
		}
	}
}

// TestOpenSystemPoolStressRace runs several independent open-system
// simulations concurrently. Simulations share no state, so the race
// detector (make race) flags any pooled record or free list that
// accidentally escapes its owning simulation.
func TestOpenSystemPoolStressRace(t *testing.T) {
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := tinyConfig()
			cfg.Seed = int64(g + 1)
			cfg.Open = OpenSystem{
				Arrivals:  longStream(t, 40, 2),
				MaxActive: 3,
				Preempt:   true,
			}
			cfg.Faults = faults.Plan{TaskFailProb: 0.15, BlacklistAfter: 2, MaxTaskAttempts: 8}
			s, err := New(cfg, nil, sched.NewProbabilistic(sched.DefaultProbabilisticConfig()))
			if err != nil {
				errs[g] = err
				return
			}
			_, errs[g] = s.Run()
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestOpenSystemValidation exercises the config-domain errors.
func TestOpenSystemValidation(t *testing.T) {
	base := func() Config {
		cfg := tinyConfig()
		cfg.Open = OpenSystem{Arrivals: longStream(t, 2, 1)}
		return cfg
	}
	cases := []struct {
		name   string
		break_ func(*Config)
	}{
		{"preempt without cap", func(c *Config) { c.Open.Preempt = true }},
		{"negative warmup", func(c *Config) { c.Open.Warmup = -1 }},
		{"nan warmup", func(c *Config) { c.Open.Warmup = math.NaN() }},
		{"infinite warmup", func(c *Config) { c.Open.Warmup = math.Inf(1) }},
		{"nan weight", func(c *Config) {
			c.Open.Tenants = []TenantPolicy{{Name: "a", Weight: math.NaN()}}
		}},
		{"infinite weight", func(c *Config) {
			c.Open.Tenants = []TenantPolicy{{Name: "a", Weight: math.Inf(1)}}
		}},
		{"nan arrival time", func(c *Config) { c.Open.Arrivals[0].At = sim.Time(math.NaN()) }},
		{"negative maxactive", func(c *Config) { c.Open.MaxActive = -2 }},
		{"unsorted arrivals", func(c *Config) {
			c.Open.Arrivals[0].At = c.Open.Arrivals[1].At + 5
		}},
		{"empty tenant name", func(c *Config) {
			c.Open.Tenants = []TenantPolicy{{Name: ""}}
		}},
		{"duplicate tenant", func(c *Config) {
			c.Open.Tenants = []TenantPolicy{{Name: "a"}, {Name: "a"}}
		}},
		{"tenants without arrivals", func(c *Config) {
			c.Open.Arrivals = nil
			c.Open.Tenants = []TenantPolicy{{Name: "a"}}
		}},
	}
	for _, tc := range cases {
		cfg := base()
		tc.break_(&cfg)
		if _, err := New(cfg, nil, sched.NewProbabilistic(sched.DefaultProbabilisticConfig())); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
