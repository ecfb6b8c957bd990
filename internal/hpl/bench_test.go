package hpl_test

import (
	"testing"

	"clustereval/internal/hpl"
)

// BenchmarkFig6_RealLU factorizes a real matrix per iteration with the HPL
// residual check — the correctness backbone behind Fig. 6.
func BenchmarkFig6_RealLU(b *testing.B) {
	a := hpl.RandomSPDish(192, 7)
	ones := make([]float64, 192)
	for i := range ones {
		ones[i] = 1
	}
	rhs := a.MatVec(ones)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lu, err := hpl.Factorize(a, 48, nil)
		if err != nil {
			b.Fatal(err)
		}
		x, err := lu.Solve(rhs)
		if err != nil {
			b.Fatal(err)
		}
		if r := hpl.Residual(a, x, rhs); r > 16 {
			b.Fatalf("residual %v", r)
		}
	}
	b.ReportMetric(hpl.FlopCount(192)*float64(b.N)/b.Elapsed().Seconds()/1e9, "host-GFlop/s")
}
