package hpcg_test

import (
	"testing"

	"clustereval/internal/hpcg"
)

// BenchmarkFig7_RealCG solves the real 27-point system with the MG
// preconditioner per iteration.
func BenchmarkFig7_RealCG(b *testing.B) {
	prob, err := hpcg.NewProblem(16, 16, 16)
	if err != nil {
		b.Fatal(err)
	}
	mg, err := hpcg.NewMG(prob, 3)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, prob.NRows)
	for i := range rhs {
		rhs[i] = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	var iters int
	for i := 0; i < b.N; i++ {
		_, res, err := hpcg.CG(prob, mg, nil, rhs, 50, 1e-9)
		if err != nil || !res.Converged {
			b.Fatalf("cg: %v converged=%v", err, res.Converged)
		}
		iters = res.Iterations
	}
	b.ReportMetric(float64(iters), "cg-iters")
}
