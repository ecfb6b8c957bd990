// Package suite assembles the clusterlint analyzers in their canonical
// order. cmd/clusterlint and the module-wide smoke tests both consume
// this list so the binary and the tests can never drift apart.
package suite

import (
	"clustereval/internal/analysis"
	"clustereval/internal/analysis/atomicfield"
	"clustereval/internal/analysis/ctxflow"
	"clustereval/internal/analysis/detflow"
	"clustereval/internal/analysis/errwrap"
	"clustereval/internal/analysis/goroleak"
	"clustereval/internal/analysis/lockorder"
	"clustereval/internal/analysis/unitsafe"
)

// Analyzers is the full clusterlint suite, ordered roughly from the
// broadest invariant (determinism, detflow) to the most local (errwrap).
// The concurrency analyzers (lockorder, goroleak, atomicfield) and the
// taint-based detflow compute cross-function facts.
var Analyzers = []*analysis.Analyzer{
	detflow.Analyzer,
	ctxflow.Analyzer,
	lockorder.Analyzer,
	goroleak.Analyzer,
	atomicfield.Analyzer,
	unitsafe.Analyzer,
	errwrap.Analyzer,
}
