package faults

import (
	"strings"
	"testing"
)

// Empty reports whether the plan injects nothing: no scripted faults and
// a zero task-failure probability. Retry/blacklist settings alone do not
// make a plan non-empty — with no failure source they are unreachable.
func (p Plan) Empty() bool {
	return len(p.Crashes) == 0 && len(p.Slowdowns) == 0 && len(p.Links) == 0 &&
		len(p.ReplicaLosses) == 0 && p.TaskFailProb == 0
}

func TestEmpty(t *testing.T) {
	if !(Plan{}).Empty() {
		t.Fatal("zero plan not empty")
	}
	// Policy knobs alone keep the plan empty: with no failure source they
	// can never fire.
	if !(Plan{MaxTaskAttempts: 2, BlacklistAfter: 1}).Empty() {
		t.Fatal("policy-only plan not empty")
	}
	for _, p := range []Plan{
		{Crashes: []NodeCrash{{Node: 1, At: 5}}},
		{Slowdowns: []NodeSlowdown{{Node: 1, At: 5, Factor: 2}}},
		{Links: []LinkDegrade{{Node: 1, At: 5, Factor: 0.5}}},
		{ReplicaLosses: []ReplicaLoss{{Node: 1, At: 5}}},
		{TaskFailProb: 0.1},
	} {
		if p.Empty() {
			t.Fatalf("plan %+v reported empty", p)
		}
	}
}

func TestDefaults(t *testing.T) {
	var p Plan
	if p.MaxAttempts() != DefaultMaxTaskAttempts {
		t.Fatalf("MaxAttempts = %d", p.MaxAttempts())
	}
	if p.BlacklistThreshold() != DefaultBlacklistAfter {
		t.Fatalf("BlacklistThreshold = %d", p.BlacklistThreshold())
	}
	p.MaxTaskAttempts, p.BlacklistAfter = 7, 9
	if p.MaxAttempts() != 7 || p.BlacklistThreshold() != 9 {
		t.Fatal("explicit settings not honoured")
	}
}

func TestValidate(t *testing.T) {
	good := Plan{
		Crashes:       []NodeCrash{{Node: 0, At: 10}, {Node: 3, At: 20}},
		Slowdowns:     []NodeSlowdown{{Node: 1, At: 5, Duration: 60, Factor: 2.5}},
		Links:         []LinkDegrade{{Node: 2, At: 5, Duration: 30, Factor: 0}, {Node: 2, At: 100, Factor: 0.25}},
		ReplicaLosses: []ReplicaLoss{{Node: 3, At: 15}},
		TaskFailProb:  0.05,
	}
	if err := good.Validate(4); err != nil {
		t.Fatal(err)
	}
	bad := []Plan{
		{Crashes: []NodeCrash{{Node: 4, At: 1}}},                         // out of range
		{Crashes: []NodeCrash{{Node: 1, At: -1}}},                        // negative time
		{Crashes: []NodeCrash{{Node: 1, At: 1}, {Node: 1, At: 2}}},       // duplicate
		{Slowdowns: []NodeSlowdown{{Node: 1, At: 1, Factor: 1}}},         // factor <= 1
		{Links: []LinkDegrade{{Node: 1, At: 1, Factor: 1.5}}},            // factor > 1
		{Links: []LinkDegrade{{Node: 1, At: 1, Factor: 0, Duration: 0}}}, // permanent severed link
		{ReplicaLosses: []ReplicaLoss{{Node: -1, At: 1}}},                // out of range
		{TaskFailProb: 1.5},                      // probability
		{TaskFailProb: 0.1, MaxTaskAttempts: -1}, // negative cap
		{TaskFailProb: 0.1, BlacklistAfter: -2},  // negative threshold
		// The DSL parses NaN and ±Inf as numbers; Validate rejects them.
		mustParse(t, "slow:1@10*NaN"),
		mustParse(t, "slow:1@10+NaN*2"),
		mustParse(t, "crash:1@NaN"),
		mustParse(t, "link:1@10+5*NaN"),
		mustParse(t, "link:1@Inf+5*0.5"),
		mustParse(t, "taskfail:NaN"),
		mustParse(t, "crash:1@Inf"),
		mustParse(t, "replica:1@-Inf"),
	}
	for i, p := range bad {
		if err := p.Validate(4); err == nil {
			t.Fatalf("bad plan %d accepted: %+v", i, p)
		}
	}
}

// mustParse parses a fault spec the DSL accepts.
func mustParse(t *testing.T, spec string) Plan {
	t.Helper()
	p, err := ParseSpec(spec)
	if err != nil {
		t.Fatalf("spec %q: %v", spec, err)
	}
	return p
}

func TestParseSpec(t *testing.T) {
	p, err := ParseSpec("crash:3@60; slow:7@30+120*2.5; link:4@10+40*0.1; replica:2@5; taskfail:0.02; attempts:5; blacklist:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Crashes) != 1 || p.Crashes[0] != (NodeCrash{Node: 3, At: 60}) {
		t.Fatalf("crashes: %+v", p.Crashes)
	}
	if len(p.Slowdowns) != 1 || p.Slowdowns[0] != (NodeSlowdown{Node: 7, At: 30, Duration: 120, Factor: 2.5}) {
		t.Fatalf("slowdowns: %+v", p.Slowdowns)
	}
	if len(p.Links) != 1 || p.Links[0] != (LinkDegrade{Node: 4, At: 10, Duration: 40, Factor: 0.1}) {
		t.Fatalf("links: %+v", p.Links)
	}
	if len(p.ReplicaLosses) != 1 || p.ReplicaLosses[0] != (ReplicaLoss{Node: 2, At: 5}) {
		t.Fatalf("replica losses: %+v", p.ReplicaLosses)
	}
	if p.TaskFailProb != 0.02 || p.MaxTaskAttempts != 5 || p.BlacklistAfter != 2 {
		t.Fatalf("scalars: %+v", p)
	}

	// Permanent slowdown: no duration.
	p, err = ParseSpec("slow:1@10*3")
	if err != nil {
		t.Fatal(err)
	}
	if p.Slowdowns[0].Duration != 0 || p.Slowdowns[0].Factor != 3 {
		t.Fatalf("permanent slowdown: %+v", p.Slowdowns[0])
	}

	if p, err := ParseSpec(""); err != nil || !p.Empty() {
		t.Fatalf("empty spec: %+v, %v", p, err)
	}

	for _, bad := range []string{
		"crash:3",         // no time
		"crash:3@60*2",    // crash with factor
		"slow:1@10",       // slow without factor
		"link:1@10",       // link without factor
		"replica:2@5*0.5", // replica with factor
		"taskfail:x",      // not a number
		"bogus:1@2",       // unknown kind
		"crash3@60",       // missing colon
		"crash:a@60",      // bad node
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}

	// A parsed plan round-trips through Validate.
	p, err = ParseSpec("crash:0@1;taskfail:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(2); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(0); err == nil || !strings.Contains(err.Error(), "outside cluster") {
		t.Fatalf("validate against empty cluster: %v", err)
	}
}
