package faults

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzParsePlan hammers the fault-DSL parser: arbitrary input must
// never panic, must parse deterministically, and an accepted plan must
// survive Validate against a finite cluster without panicking either.
// A plan Validate accepts carries only finite numbers.
func FuzzParsePlan(f *testing.F) {
	f.Add("crash:3@60; slow:7@30+120*2.5; link:4@10+40*0.1; replica:2@5; taskfail:0.02; attempts:5; blacklist:2")
	f.Add("slow:1@10*3")
	f.Add("crash:0@1;taskfail:0.5")
	f.Add("")
	f.Add(";;;  ; ")
	f.Add("crash:3")
	f.Add("link:4@10+40*NaN")
	f.Add("taskfail:1e309")
	f.Add("CRASH:3@60")
	f.Add("slow:-1@-2+-3*-4")
	f.Add("crash:1@Inf;replica:1@-Inf")

	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseSpec(spec)
		if err != nil {
			if !p.Empty() {
				t.Fatalf("rejected spec %q returned a non-empty plan %+v", spec, p)
			}
			return
		}
		again, err2 := ParseSpec(spec)
		if err2 != nil {
			t.Fatalf("spec %q parsed, then failed on re-parse: %v", spec, err2)
		}
		// Formatted comparison, not DeepEqual: the parser lets NaN
		// factors through to Validate, and NaN != NaN.
		if fmt.Sprintf("%+v", p) != fmt.Sprintf("%+v", again) {
			t.Fatalf("spec %q parses non-deterministically: %+v vs %+v", spec, p, again)
		}
		// Validation may reject (out-of-range nodes, bad domains) but
		// must never panic, whatever the parser let through.
		// %+v prints a NaN or infinite number as NaN, +Inf or -Inf, and
		// no Plan field name contains either word.
		if s := fmt.Sprintf("%+v", p); p.Validate(8) == nil && (strings.Contains(s, "NaN") || strings.Contains(s, "Inf")) {
			t.Fatalf("spec %q validated with a non-finite number: %s", spec, s)
		}
		_ = p.Validate(0)
	})
}
