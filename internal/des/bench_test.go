package des_test

// Engine-level benchmarks: raw event churn and proc spawn/reuse. `make
// benchdiff-engine` gates the BenchmarkDES_* prefix hard against the
// parent commit, built and run on the same machine, so an engine
// regression fails the build.

import (
	"testing"

	"clustereval/internal/des"
	"clustereval/internal/units"
)

// BenchmarkDES_EventChurn measures raw event throughput: a fixed process
// population doing nothing but quantized delays, so the cost is schedule,
// queue, and context-switch — the per-event floor under every simulation.
func BenchmarkDES_EventChurn(b *testing.B) {
	const procs = 64
	const delaysPerProc = 100
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := des.New()
		for p := 0; p < procs; p++ {
			phase := units.Seconds(float64(p%7) * 0.25)
			e.Spawn("churn", func(pr *des.Proc) {
				for d := 0; d < delaysPerProc; d++ {
					pr.Delay(1 + phase)
				}
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(procs*delaysPerProc), "events/run")
}

// BenchmarkDES_SpawnReuse measures spawn-heavy workloads: many short-lived
// processes per run, across many runs — the pattern mpisim produces when a
// World is reused, and the case the parked-worker pool exists for.
func BenchmarkDES_SpawnReuse(b *testing.B) {
	const procs = 256
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := des.New()
		for p := 0; p < procs; p++ {
			e.Spawn("ephemeral", func(pr *des.Proc) { pr.Delay(1) })
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
