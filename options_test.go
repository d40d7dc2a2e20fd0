package mapsched

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// TestOptionDomains walks the rejection domain of every With* option
// and of the cluster config's cross traffic and heartbeat expiry:
// out-of-domain values make New fail with an error wrapping
// ErrInvalidOption, and the domain boundaries stay accepted.
func TestOptionDomains(t *testing.T) {
	check := func(t *testing.T, err error, ok bool) {
		t.Helper()
		if ok {
			if err != nil {
				t.Fatalf("boundary value rejected: %v", err)
			}
			return
		}
		if err == nil {
			t.Fatal("out-of-domain value accepted")
		}
		if !errors.Is(err, ErrInvalidOption) {
			t.Fatalf("error %v does not wrap ErrInvalidOption", err)
		}
	}
	cases := []struct {
		name string
		opt  Option
		ok   bool
	}{
		{"pmin_negative", WithPmin(-0.01), false},
		{"pmin_above_one", WithPmin(1.01), false},
		{"pmin_zero", WithPmin(0), true},
		{"pmin_one", WithPmin(1), true},
		{"pmin_nan", WithPmin(math.NaN()), false},
		{"scale_zero", WithScale(0), false},
		{"scale_negative", WithScale(-3), false},
		{"scale_one", WithScale(1), true},
		{"replication_zero", WithReplication(0), false},
		{"replication_negative", WithReplication(-1), false},
		{"replication_one", WithReplication(1), true},
		{"storage_subset_negative", WithStorageSubset(-1), false},
		{"storage_subset_zero", WithStorageSubset(0), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := buildOptions([]Option{tc.opt})
			check(t, err, tc.ok)
		})
	}
	cfgCases := []struct {
		name string
		set  func(*ClusterConfig)
		ok   bool
	}{
		{"cross_traffic_negative", func(c *ClusterConfig) { c.CrossTraffic = -1 }, false},
		{"cross_traffic_zero", func(c *ClusterConfig) { c.CrossTraffic = 0 }, true},
		{"heartbeat_expiry_negative", func(c *ClusterConfig) { c.HeartbeatExpiry = -1 }, false},
		{"heartbeat_expiry_zero", func(c *ClusterConfig) { c.HeartbeatExpiry = 0 }, true},
		{"heartbeat_expiry_nan", func(c *ClusterConfig) { c.HeartbeatExpiry = math.NaN() }, false},
		{"heartbeat_expiry_inf", func(c *ClusterConfig) { c.HeartbeatExpiry = math.Inf(1) }, false},
	}
	for _, tc := range cfgCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			tc.set(&cfg)
			_, err := New(cfg, Batch(Grep), SchedulerFair, WithScale(40))
			check(t, err, tc.ok)
		})
	}
}

// TestRejectsUnknownCostMode: a cost mode other than hops or network
// condition fails New and NewPlacementService instead of silently
// costing by the per-node path meant for a non-Cluster network.
func TestRejectsUnknownCostMode(t *testing.T) {
	cfg := smallConfig()
	cfg.CostMode = CostMode(7)
	if _, err := New(cfg, Batch(Grep), SchedulerProbabilistic, WithScale(40)); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("New error = %v, want ErrInvalidOption", err)
	}
	if _, err := NewPlacementService(cfg, Batch(Grep), WithScale(40)); err == nil {
		t.Fatal("NewPlacementService accepted cost mode 7")
	}
}

// TestNewRejectsInvalidOptions checks the typed error surfaces through
// the public constructors, not just the option builder.
func TestNewRejectsInvalidOptions(t *testing.T) {
	if _, err := New(smallConfig(), Batch(Grep), SchedulerFair, WithPmin(2)); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("New error = %v, want ErrInvalidOption", err)
	}
	if _, err := NewPlacementService(smallConfig(), Batch(Grep), WithScale(0)); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("NewPlacementService error = %v, want ErrInvalidOption", err)
	}
	if _, err := Replay(smallConfig(), Batch(Grep), nil, WithReplication(0)); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("Replay error = %v, want ErrInvalidOption", err)
	}
	// Arrival streams that pass each option's own check but fail when
	// the stream is built.
	def := Batch(Grep)[0]
	for _, tc := range []struct {
		name string
		plan ArrivalPlan
		ts   []Tenant
	}{
		{"too_many_poisson_arrivals", ArrivalPlan{Horizon: 1e6}, []Tenant{{Name: "a", Rate: 1}}},
		{"duplicate_tenant", ArrivalPlan{Horizon: 60}, []Tenant{{Name: "a", Rate: 0.01}, {Name: "a", Rate: 0.01}}},
		{"trace_names_unknown_tenant", ArrivalPlan{Trace: []TraceArrival{{At: 1, Tenant: "b", Def: def}}}, []Tenant{{Name: "a"}}},
	} {
		_, err := New(smallConfig(), nil, SchedulerFair, WithArrivals(tc.plan), WithTenants(tc.ts...))
		if !errors.Is(err, ErrInvalidOption) {
			t.Errorf("%s: New error = %v, want ErrInvalidOption", tc.name, err)
		}
	}
}

// TestClusterSeedSeedsRuns: the cluster config's Seed seeds New and
// NewPlacementService.
func TestClusterSeedSeedsRuns(t *testing.T) {
	seeded := DefaultClusterConfig()
	seeded.Seed = 7
	run := func(cfg ClusterConfig) *Result {
		t.Helper()
		res, err := runSim(cfg, Batch(Grep), SchedulerProbabilistic, WithScale(30))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	decide := func(cfg ClusterConfig) []PlacementDecision {
		t.Helper()
		svc, err := NewPlacementService(cfg, Batch(Grep), WithScale(30))
		if err != nil {
			t.Fatal(err)
		}
		var ds []PlacementDecision
		for n := 0; n < cfg.Topology.Racks*cfg.Topology.NodesPerRack; n++ {
			ds = append(ds, svc.DecideMap(0, n))
		}
		return ds
	}

	if got := run(seeded); reflect.DeepEqual(got, run(DefaultClusterConfig())) {
		t.Fatalf("cfg.Seed = 7 ran the seed-1 simulation (makespan %v)", got.Makespan)
	}
	if reflect.DeepEqual(decide(seeded), decide(DefaultClusterConfig())) {
		t.Fatal("cfg.Seed = 7 gave the seed-1 placement decisions")
	}
}

// FuzzOptionDomains feeds arbitrary floats to every float-valued input
// of the façade: WithPmin, the cluster config's heartbeat expiry, the
// arrival plan's horizon, warm-up and trace instant, and a tenant's
// weight and rate.
// Each input must either be rejected with an error wrapping
// ErrInvalidOption or finish a short run on a 4-node cluster; a panic, a
// hang or any other error is a finding. The run crashes a node so the
// heartbeat expiry times a real detection, and it caps admission and the
// tenant queue so an accepted arrival rate cannot admit unbounded work.
func FuzzOptionDomains(f *testing.F) {
	valid := [7]float64{0.4, 20, 60, 0, 5, 1, 0.05}
	f.Add(valid[0], valid[1], valid[2], valid[3], valid[4], valid[5], valid[6])
	for i := range valid {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, math.Copysign(0, -1), 1e300, math.MaxFloat64} {
			in := valid
			in[i] = v
			f.Add(in[0], in[1], in[2], in[3], in[4], in[5], in[6])
		}
	}
	crash, err := ParseFaultPlan("crash:1@10")
	if err != nil {
		f.Fatal(err)
	}
	base := DefaultClusterConfig()
	base.Topology.Racks, base.Topology.NodesPerRack = 1, 4
	base.MaxSimTime = 300
	base.Faults = crash
	def := Batch(Grep)[0]
	f.Fuzz(func(t *testing.T, pmin, expiry, horizon, warmup, at, weight, rate float64) {
		plan := ArrivalPlan{
			Horizon: horizon, Warmup: warmup, MaxActive: 2,
			Trace: []TraceArrival{{At: at, Tenant: "a", Def: def}},
		}
		cfg := base
		cfg.HeartbeatExpiry = expiry
		s, err := New(cfg, nil, SchedulerProbabilistic, WithScale(60),
			WithPmin(pmin), WithArrivals(plan),
			WithTenants(Tenant{Name: "a", Weight: weight, Rate: rate, QueueCap: 4}))
		if err != nil {
			if !errors.Is(err, ErrInvalidOption) {
				t.Fatalf("New: %v, want nil or an ErrInvalidOption error", err)
			}
			return
		}
		if _, err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
}
