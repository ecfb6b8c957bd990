// Package loadgen generates sustained, reproducible load against a
// clusterd daemon or a clusterfleet coordinator and judges the observed
// service levels.
//
// The three pieces compose but stand alone:
//
//   - Generator derives the i-th job spec purely from (seed, i) via the
//     simulator's own xrand streams, so two runs with the same seed
//     submit byte-identical traffic: a mixed-kind clean pool sized to
//     dial the cache hit rate, a single repeated fault-carrying spec
//     (key-affine, so it always lands on — and eventually trips the
//     breaker of — the same shard), and a deadline-bearing tranche.
//   - Limiter paces submissions at a fixed rate through an injected
//     clock, keeping the package clusterlint-clean and the pacing
//     testable without wall-clock sleeps.
//   - Runner drives N concurrent submitters through the Limiter, polls
//     every accepted job to a terminal state, and folds the outcomes
//     into a Report whose Check method asserts SLOs: minimum
//     throughput, latency percentiles, zero lost jobs, zero clean-job
//     failures.
//
// cmd/loadgen wraps Runner in flags; the load scenarios of
// scripts/acceptance build the SLO gate in CI on top of that binary.
package loadgen
