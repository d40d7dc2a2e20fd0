package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestArrivalInputBoundary walks the open-system input domain through the
// command-line DSLs and BuildArrivals: non-finite horizons, warm-ups,
// rates and weights are rejected at parse time with an error naming the
// field (an infinite horizon or rate used to hang the generator, a NaN
// one to yield no arrivals and a misleading error later), and an
// expected stream beyond the arrival limit is rejected before any job is
// generated.
func TestArrivalInputBoundary(t *testing.T) {
	cases := []struct {
		name, plan, tenants string
		field               string // "" means accepted
	}{
		{"paper_run", "horizon=600,warmup=60,maxactive=12,preempt=1", "gold:weight=3,rate=0.05;be:rate=0.02,cap=8", ""},
		{"zero_rate", "horizon=600", "a:rate=0", ""},
		{"horizon_inf", "horizon=Inf", "a:rate=0.01", "horizon"},
		{"horizon_nan", "horizon=NaN", "a:rate=0.01", "horizon"},
		{"warmup_nan", "horizon=600,warmup=NaN", "a:rate=0.01", "warmup"},
		{"warmup_inf", "horizon=600,warmup=Inf", "a:rate=0.01", "warmup"},
		{"rate_inf", "horizon=600", "a:rate=Inf", "rate"},
		{"rate_nan", "horizon=600", "a:rate=NaN", "rate"},
		{"weight_nan", "horizon=600", "a:rate=0.01,weight=NaN", "weight"},
		{"weight_inf", "horizon=600", "a:rate=0.01,weight=Inf", "weight"},
		{"expected_arrivals_over_limit", "horizon=1e300", "a:rate=1e-3", "horizon"},
		{"expected_arrivals_summed", "horizon=1e5", "a:rate=0.6;b:rate=0.6", "rate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := buildFromDSL(tc.plan, tc.tenants)
			if tc.field == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %q does not name the %s field", err, tc.field)
			}
		})
	}
}

// buildFromDSL parses both DSLs and, only when both parse, generates the
// stream at a large scale (small jobs) so accepted rows stay cheap.
func buildFromDSL(planSpec, tenantSpec string) error {
	plan, err := ParseArrivalPlan(planSpec)
	if err != nil {
		return err
	}
	tenants, err := ParseTenants(tenantSpec)
	if err != nil {
		return err
	}
	o := DefaultOptions()
	o.Scale = 300
	_, err = BuildArrivals(plan, tenants, 1, o)
	return err
}

// FuzzParseArrivalPlan hammers the arrival-plan DSL: arbitrary input must
// never panic, must parse deterministically, and an accepted plan carries
// only finite numbers.
func FuzzParseArrivalPlan(f *testing.F) {
	f.Add("horizon=600,warmup=60,maxactive=12,preempt=1")
	f.Add("")
	f.Add(",,, ,")
	f.Add("horizon=Inf")
	f.Add("horizon=NaN,warmup=-Inf")
	f.Add("warmup=1e309")
	f.Add("preempt=1")
	f.Add("maxactive=-3,horizon")
	f.Add("HORIZON=5")

	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseArrivalPlan(spec)
		again, err2 := ParseArrivalPlan(spec)
		if (err == nil) != (err2 == nil) || fmt.Sprintf("%+v", p) != fmt.Sprintf("%+v", again) {
			t.Fatalf("spec %q parses non-deterministically: %+v (%v) vs %+v (%v)", spec, p, err, again, err2)
		}
		if err != nil {
			return
		}
		for _, x := range []float64{p.Horizon, p.Warmup} {
			if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
				t.Fatalf("spec %q accepted with a non-finite or negative number: %+v", spec, p)
			}
		}
	})
}

// FuzzParseTenants hammers the tenant DSL: arbitrary input must never
// panic, must parse deterministically, and accepted tenants carry only
// finite, non-negative weights and rates.
func FuzzParseTenants(f *testing.F) {
	f.Add("gold:weight=3,rate=0.05;best-effort:rate=0.02,cap=8")
	f.Add("a")
	f.Add("")
	f.Add(";;; ; ")
	f.Add("a:rate=Inf")
	f.Add("a:weight=NaN,rate=1e309")
	f.Add("a:min=50,max=10")
	f.Add("a:cap=-1;b:bogus=2")
	f.Add("x y:rate=1")

	f.Fuzz(func(t *testing.T, spec string) {
		ts, err := ParseTenants(spec)
		again, err2 := ParseTenants(spec)
		if (err == nil) != (err2 == nil) || fmt.Sprintf("%+v", ts) != fmt.Sprintf("%+v", again) {
			t.Fatalf("spec %q parses non-deterministically: %+v (%v) vs %+v (%v)", spec, ts, err, again, err2)
		}
		if err != nil {
			return
		}
		for _, tn := range ts {
			for _, x := range []float64{tn.Weight, tn.Rate} {
				if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
					t.Fatalf("spec %q accepted tenant with a non-finite or negative number: %+v", spec, tn)
				}
			}
		}
	})
}
