// Quickstart: the minimal tour of the evaluation framework.
//
// It loads the two machine models (Table I), runs the STREAM bandwidth
// sweep and the LINPACK model on both, and prints the Table IV speedup
// summary — the paper's whole story in one screen.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"clustereval/internal/bench/stream"
	"clustereval/internal/figures"
	"clustereval/internal/hpl"
	"clustereval/internal/machine"
	"clustereval/internal/toolchain"
)

func main() {
	arm := machine.CTEArm()
	mn4 := machine.MareNostrum4()

	fmt.Printf("machines: %s (%d nodes, %s/node) vs %s (%d nodes, %s/node)\n\n",
		arm.Name, arm.Nodes, arm.Node.DoublePeak(),
		mn4.Name, mn4.Nodes, mn4.Node.DoublePeak())

	// Memory bandwidth: the A64FX's HBM2 shines only when the run is laid
	// out NUMA-correctly (hybrid MPI+OpenMP), exactly as the paper found.
	omp, err := stream.Figure2(arm, toolchain.StreamOpenMPArm(), toolchain.C, 610e6)
	if err != nil {
		log.Fatal(err)
	}
	hyb, err := stream.Figure3(arm, toolchain.StreamHybridArm(), toolchain.Fortran)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("STREAM Triad on %s:\n", arm.Name)
	fmt.Printf("  OpenMP-only : %v at %d threads (%.0f%% of peak)\n",
		omp.Best.Bandwidth, omp.Best.Threads, omp.PercentOfPeak)
	fmt.Printf("  MPI+OpenMP  : %v at %s ranks x threads (%.0f%% of peak)\n\n",
		hyb.Best.Bandwidth, hyb.Best.Label(), hyb.PercentOfPeak)

	// LINPACK: the vendor-tuned benchmark favours the A64FX...
	a, err := hpl.Predict(arm, 192)
	if err != nil {
		log.Fatal(err)
	}
	m, err := hpl.Predict(mn4, 192)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LINPACK at 192 nodes: %s %.0f%% of peak vs %s %.0f%% -> speedup %.2fx\n\n",
		arm.Name, a.PercentOfPeak, mn4.Name, m.PercentOfPeak,
		float64(a.Perf)/float64(m.Perf))

	// ...while untuned applications lose 2-4x (Table IV).
	rows, err := figures.Default().TableIV()
	if err != nil {
		log.Fatal(err)
	}
	if err := figures.RenderTableIV(rows).Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
