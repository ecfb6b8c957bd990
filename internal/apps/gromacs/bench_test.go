package gromacs_test

import (
	"testing"

	"clustereval/internal/apps/gromacs"
)

// BenchmarkFig12_RealMD steps the real Lennard-Jones engine per iteration.
func BenchmarkFig12_RealMD(b *testing.B) {
	s, err := gromacs.NewSystem(256, 0.5, 2.5, 42)
	if err != nil {
		b.Fatal(err)
	}
	s.ComputeForces()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(0.004)
	}
	b.ReportMetric(float64(s.N), "atoms")
}
