// Package clustereval reproduces "Cluster of emerging technology:
// evaluation of a production HPC system based on A64FX" (CLUSTER 2021) as a
// simulation study: machine models of CTE-Arm (Fujitsu A64FX, TofuD torus)
// and MareNostrum 4 (Intel Skylake, OmniPath), a deterministic
// discrete-event MPI runtime, real numerical kernels (LU, multigrid CG,
// stencils, molecular dynamics, spectral transforms) and calibrated
// performance models that regenerate every table and figure of the paper.
//
// The root package holds the benchmark harness (bench_test.go): one
// testing.B benchmark per table and figure. The library lives under
// internal/; the binaries under cmd/; runnable examples under examples/.
// All dispatch flows through internal/experiment, a typed registry that
// defines each job kind (stream, hybrid-stream, fpu, net, hpl, hpcg, app)
// exactly once — parameter schema, defaults, validation, canonical cache
// keys and execution — consumed by the figure harness, the clusterd
// service and the command-line layer behind clustereval and clusterd
// (internal/experiment/cli). See DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-versus-measured record.
package clustereval
