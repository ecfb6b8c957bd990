// Package experiment is the single registration point for the paper's
// evaluation menu. Each job kind — stream, hybrid-stream, fpu, net, hpl,
// hpcg, app — is defined exactly once here: its name, its typed parameter
// struct with defaults, its validation and canonicalisation rules (the
// input to clusterd's content-addressed cache keys), and its
// Run(ctx, env) function against the simulation layers.
//
// Every consumer is a thin client of this registry:
//
//   - internal/service derives spec validation, canonical cache keys and
//     runner dispatch from it (the keys are byte-stable: the golden
//     fixtures under testdata/ pin them across refactors);
//   - internal/figures renders the paper's figures by driving the same
//     per-kind entry points (Pair.StreamSeriesOn, the catalog's
//     one-machine application sweeps, ...);
//   - the cmd/* binaries collapse onto the generic driver in
//     internal/experiment/cli, which generates their flags from each
//     kind's parameter schema.
//
// Registering a new kind makes it simultaneously available to the HTTP
// API (POST /v1/jobs, discoverable via GET /v1/kinds), the clustereval
// -kind runner, and the CLI flag generator — no per-consumer wiring.
package experiment
