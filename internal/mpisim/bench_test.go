package mpisim_test

// Engine-level benchmarks: mpisim collectives at two rank counts. `make
// benchdiff-engine` gates the BenchmarkMPISim_* prefix hard against the
// parent commit, built and run on the same machine.

import (
	"testing"

	"clustereval/internal/interconnect"
	"clustereval/internal/machine"
	"clustereval/internal/mpisim"
)

// benchAllreduce runs a 4-value Allreduce across the given rank count on
// the CTE-Arm fabric, reusing one World (and its DES engine) for all
// iterations exactly as the experiment kinds do.
func benchAllreduce(b *testing.B, ranks int) {
	arm := machine.CTEArm()
	fab, err := interconnect.NewTofuD(arm, arm.Nodes)
	if err != nil {
		b.Fatal(err)
	}
	w, err := mpisim.NewWorld(fab, ranks, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := w.Run(func(c *mpisim.Comm) {
			data := []float64{float64(c.Rank()), 1, 2, 3}
			c.Allreduce(data, mpisim.OpSum, 32)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMPISim_AllreduceRanks64 is the small-communicator collective.
func BenchmarkMPISim_AllreduceRanks64(b *testing.B) { benchAllreduce(b, 64) }

// BenchmarkMPISim_AllreduceRanks512 is the large-communicator collective:
// rank spawn cost and event-queue pressure dominate here.
func BenchmarkMPISim_AllreduceRanks512(b *testing.B) { benchAllreduce(b, 512) }
