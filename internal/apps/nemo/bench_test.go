package nemo_test

import (
	"testing"

	"clustereval/internal/apps/nemo"
	"clustereval/internal/interconnect"
	"clustereval/internal/machine"
	"clustereval/internal/mpisim"
)

// BenchmarkFig11_RealOcean steps the real distributed ocean proxy through
// the simulated MPI runtime per iteration.
func BenchmarkFig11_RealOcean(b *testing.B) {
	fab, err := interconnect.NewTofuD(machine.CTEArm(), 12)
	if err != nil {
		b.Fatal(err)
	}
	f, err := nemo.NewField(48, 32)
	if err != nil {
		b.Fatal(err)
	}
	f.Set(24, 16, 1)
	p := nemo.Params{U: 0.5, V: 0.25, Kappa: 0.1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := mpisim.NewWorld(fab, 6, 4)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := nemo.RunDistributed(w, f, p, 8); err != nil {
			b.Fatal(err)
		}
	}
}
