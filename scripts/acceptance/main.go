// Command acceptance is the process-level acceptance harness. It builds
// the real clusterd, clusterfleet and loadgen binaries, runs them as
// separate processes, injects a fault — a daemon SIGKILL, a shard
// SIGKILL, a destroyed shard disk, or a shard kill under load — and
// asserts that no acknowledged job is lost. Each scenario is one row of
// the table below; run from the module root with one or more names:
//
//	go run ./scripts/acceptance crash fleet
//
// The Makefile's crashtest, fleettest, disktest, loadtest and racesmoke
// targets are lists of these scenarios. Scenarios run in order and stop
// at the first failure. The exit status is 0 when all pass, 1 on a
// failure or an interrupt, and 2 for an unknown scenario name. Every
// daemon runs in its own process group, and a failed or interrupted run
// SIGKILLs each group, shards included, before it exits.
package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

// scenario is one row of the acceptance table. A row names its daemon
// command line, its workload and its timing; run drives the scenario.
// The durability fields (spec through settle) are read by crash, fleet
// and disk, the loadgen fields by load.
type scenario struct {
	name string
	race bool // build every binary with -race
	run  func(*harness, scenario) error
	// daemon is the binary and its flags. start adds the listen address
	// and points it at the scenario's data directory.
	daemon []string
	jobs   int // workload size; per phase for load

	spec     func(i int) string // the i-th job of the workload
	attempts int                // tries per submission; only 1 is strict
	poll     time.Duration      // job-state poll interval
	killAt   int                // terminal jobs before the fault is injected
	before   time.Duration      // timeout for killAt
	settle   time.Duration      // timeout for every job after the fault

	slo      []string // loadgen pacing and SLO floors for phases 1 and 2
	cooldown []string // loadgen flags for the clean phase 3; nil skips it
}

// netSpec is a DES-backed point-to-point job: distinct sizes and
// destinations keep every job out of the result cache.
func netSpec(size, iters, dst int) string {
	return fmt.Sprintf(`{"kind":"net","size_bytes":%d,"iters":%d,"src_node":0,"dst_node":%d}`, size, iters, dst)
}

// midFlightIters sizes the crash, fleet and disk rows' net jobs at
// roughly 0.1 s each, so the workload is still queued or running when the
// fault lands after the first few terminal jobs, and recovery must re-run
// the victims rather than only rehydrate finished jobs.
const midFlightIters = 30000

var (
	fleetDaemon = []string{"clusterfleet", "-shards", "3", "-workers", "2", "-queue", "128", "-probe-interval", "100ms"}
	loadDaemon  = []string{"clusterfleet", "-shards", "3", "-workers", "4", "-queue", "512", "-cache", "4096", "-probe-interval", "100ms"}
)

// fleetRow is the fleet scenario at a given workload size. The race lane
// runs fewer jobs because its instrumented binaries are several times
// slower. Three shards run six workers to crash's two, so each job is
// three times as long to keep the victim shard's queue as deep at the
// kill.
func fleetRow(name string, race bool, jobs int) scenario {
	return scenario{
		name: name, race: race, run: fleet, daemon: fleetDaemon, jobs: jobs,
		spec:     func(i int) string { return netSpec(4096+512*i, 3*midFlightIters, 1+i%31) },
		attempts: 1, poll: 20 * time.Millisecond,
		killAt: 10, before: 60 * time.Second, settle: 180 * time.Second,
	}
}

var scenarios = []scenario{
	{
		name: "crash", run: crash,
		daemon: []string{"clusterd", "-workers", "2", "-drain-timeout", "60s"}, jobs: 50,
		spec:     func(i int) string { return netSpec(4096+512*i, midFlightIters, i+1) },
		attempts: 1, poll: 20 * time.Millisecond,
		killAt: 5, before: 30 * time.Second, settle: 120 * time.Second,
	},
	fleetRow("fleet", false, 60),
	fleetRow("fleet-race", true, 20),
	{
		// Three shards run six workers, so jobs are sized as in the
		// fleet row.
		name: "disk", run: disk,
		daemon: []string{"clusterfleet", "-shards", "3", "-replicas", "2", "-ack-quorum", "2",
			"-workers", "2", "-queue", "512", "-probe-interval", "100ms"},
		jobs: 24,
		spec: func(i int) string { return netSpec(1024+64*i, 3*midFlightIters, 1+i%31) },
		// Only an acknowledged ID joins the set the durability promise
		// covers, so a client-style retry of shed, quorum-miss and
		// transport failures is part of the workload here.
		attempts: 200, poll: 20 * time.Millisecond,
		killAt: 4, before: 120 * time.Second, settle: 300 * time.Second,
	},
	{
		// The SLO floors are loose on purpose: this gates correctness
		// under load on noisy CI machines; it is not a benchmark.
		name: "load", run: load, daemon: loadDaemon, jobs: 2500,
		slo: []string{"-concurrency", "12", "-rate", "400", "-unique", "200", "-poll-timeout", "3m",
			"-min-throughput", "25", "-max-submit-p99", "5", "-max-e2e-p99", "90"},
		// Only net-kind pool entries have a parameter space wide enough
		// to miss the shards' result caches, so roughly a quarter of
		// these jobs execute fresh: the wave is sized so each shard still
		// cycles well over half its 128-outcome health window.
		cooldown: []string{"-jobs", "1800", "-unique", "1800", "-seed", "3",
			"-fault-every=-1", "-deadline-ms", "600000",
			"-concurrency", "12", "-rate", "400", "-poll-timeout", "3m"},
	},
	{
		// Instrumented binaries run the DES kernels several times slower:
		// arrivals are paced so the six workers keep up rather than
		// queueing the whole run, the unique-spec pool shrinks so the
		// cache-hit assertion still holds, and the latency floors loosen.
		// There is no cooldown: returning health to ok needs a full-size
		// wave to cycle the shards' outcome windows.
		name: "load-race", race: true, run: load, daemon: loadDaemon, jobs: 300,
		slo: []string{"-concurrency", "8", "-rate", "2", "-unique", "60", "-poll-timeout", "10m",
			"-min-throughput", "0.5", "-max-submit-p99", "10", "-max-e2e-p99", "180"},
	},
}

func main() { os.Exit(run(os.Args[1:])) }

// run executes the named scenarios and returns the exit status.
func run(names []string) int {
	known := map[string]scenario{}
	valid := make([]string, 0, len(scenarios))
	for _, sc := range scenarios {
		known[sc.name] = sc
		valid = append(valid, sc.name)
	}
	rows := make([]scenario, 0, len(names))
	for _, name := range names {
		sc, ok := known[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "acceptance: unknown scenario %q (have %s)\n", name, strings.Join(valid, ", "))
			return 2
		}
		rows = append(rows, sc)
	}
	if len(rows) == 0 {
		fmt.Fprintf(os.Stderr, "usage: go run ./scripts/acceptance scenario... (have %s)\n", strings.Join(valid, ", "))
		return 2
	}

	// The daemons lead their own process groups, so a terminal's Ctrl-C
	// reaches only this process; the context turns it into a SIGKILL of
	// every group.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	dir, err := os.MkdirTemp("", "acceptance")
	if err != nil {
		fmt.Fprintln(os.Stderr, "acceptance:", err)
		return 1
	}
	h := &harness{ctx: ctx, dir: dir, built: map[string]bool{}}
	defer h.close()
	for _, sc := range rows {
		if err := sc.run(h, sc); err != nil {
			if ctx.Err() != nil {
				err = fmt.Errorf("interrupted: %w", err)
			}
			fmt.Fprintf(os.Stderr, "acceptance: %s: FAIL: %v\n", sc.name, err)
			return 1
		}
		fmt.Printf("acceptance: %s: PASS\n", sc.name)
	}
	return 0
}
