package funnel_test

import (
	"testing"

	"mapsched/internal/lint/funnel"
	"mapsched/internal/lint/linttest"
)

func TestFunnel(t *testing.T) { linttest.Run(t, funnel.Analyzer, "fun") }

// TestFunnelCrossPackage checks the funnel marker follows fun.Task into
// an importing package via the exported fact, and that a client's own
// //lint:funnel functions gain no licence over a foreign field.
func TestFunnelCrossPackage(t *testing.T) {
	linttest.Run(t, funnel.Analyzer, "funclient")
}
