package hpcg_test

import (
	"testing"

	"clustereval/internal/hpcg"
	"clustereval/internal/interconnect"
	"clustereval/internal/machine"
	"clustereval/internal/mpisim"
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

// BenchmarkFig7_DistributedCG runs the MPI-decomposed CG (1-D slabs, halo
// exchanges, global reductions) through the simulated runtime — the
// communication structure of the paper's MPI-only HPCG runs.
func BenchmarkFig7_DistributedCG(b *testing.B) {
	fab, err := interconnect.NewTofuD(machine.CTEArm(), 12)
	if err != nil {
		b.Fatal(err)
	}
	const nx, ny, nz = 4, 4, 8
	rhs := make([]float64, nx*ny*nz)
	for i := range rhs {
		rhs[i] = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	var iters int
	for i := 0; i < b.N; i++ {
		w, err := mpisim.NewWorld(fab, 4, 4)
		if err != nil {
			b.Fatal(err)
		}
		_, res, err := hpcg.DistCG(w, nx, ny, nz, rhs, 200, 1e-8)
		if err != nil || !res.Converged {
			b.Fatalf("err=%v converged=%v", err, res.Converged)
		}
		iters = res.Iterations
	}
	b.ReportMetric(float64(iters), "cg-iters")
}
