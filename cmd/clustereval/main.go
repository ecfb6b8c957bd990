// Command clustereval reproduces the full evaluation of "Cluster of
// emerging technology: evaluation of a production HPC system based on
// A64FX" (CLUSTER 2021): every table and figure, printed to stdout.
//
// Usage:
//
//	clustereval               # everything
//	clustereval -table 4      # one table (1..4)
//	clustereval -figure 6     # one figure (1..16)
//	clustereval -csv -table 4 # table as CSV
//	clustereval -out dir      # every table and figure as CSV files
//	clustereval -kind hpl -spec '{"nodes":32}'  # one registry experiment
//	clustereval fpu [-iters N] [-variability]         # Fig. 1 and checksums
//	clustereval stream [-verify N] [-threads T]       # Figs. 2-3
//	clustereval net [-size B] [-seed S] [-des]        # Figs. 4-5
//	clustereval hpl [-verify N] [-nb B] [-threads T]  # Fig. 6
//	clustereval hpcg [-verify N] [-threads T]         # Fig. 7
//	clustereval app [-app NAME] [-seed S]             # Figs. 8-16
//
// The -kind mode runs any experiment kind registered in
// internal/experiment — the same registry clusterd serves — and prints
// the result as JSON. A subcommand prints one experiment's figures with
// the details the paper discusses around them; -verify runs the real
// kernels instead of the model. An unknown subcommand, an unknown flag or
// a stray argument exits 2.
package main

import (
	"os"

	"clustereval/internal/experiment/cli"
)

func main() { os.Exit(cli.Main(os.Args[1:])) }
