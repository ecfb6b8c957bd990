package detflow_test

import (
	"testing"

	"clustereval/internal/analysis/analysistest"
	"clustereval/internal/analysis/detflow"
)

// Test covers the taint engine: sources exported as facts from
// internal/report and followed across calls to their sinks in
// internal/experiment.
func Test(t *testing.T) {
	analysistest.Run(t, detflow.Analyzer,
		"internal/report",
		"internal/experiment",
	)
}

// TestDeterminism covers the simulation-package rules: the math/rand
// import ban, the wall-clock and timer ban with its _test.go exception,
// and map order reaching output (internal/mpisim), and their silence
// outside the simulation packages (internal/report).
func TestDeterminism(t *testing.T) {
	analysistest.Run(t, detflow.Analyzer,
		"internal/mpisim",
		"internal/report",
	)
}

// TestCanonical covers the canonical-bytes rules: map order reaching the
// output or the results of a canonical function, and %v/%g floats, in a
// package that is also a simulation package (internal/experiment/canon)
// and in one that is not (internal/journal).
func TestCanonical(t *testing.T) {
	analysistest.Run(t, detflow.Analyzer,
		"internal/experiment/canon",
		"internal/journal",
	)
}
