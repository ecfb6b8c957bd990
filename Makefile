# Reproduction of "Cluster of emerging technology: evaluation of a
# production HPC system based on A64FX" (CLUSTER 2021).
#
# Stdlib-only Go; everything runs offline.

GO ?= go

# Pinned staticcheck release for CI (satisfies "fail the build if it
# cannot run" without chasing @latest breakage).
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: all build vet lint lint-json clusterlint staticcheck test race racesmoke cover benchdiff-engine difftest fuzz profile ablation paper export serve fleet examples crashtest fleettest disktest loadtest clean

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis tier (see TESTING.md): go vet, staticcheck, and the
# repo's own clusterlint analyzers driven through `go vet -vettool`.
lint: vet staticcheck clusterlint

# staticcheck is pinned; locally a missing binary degrades to a warning
# (the repo adds no dependencies), but under CI it is a hard failure so
# the check can never silently stop running.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ -n "$$CI" ]; then \
		echo "lint: staticcheck $(STATICCHECK_VERSION) is required in CI but not installed" >&2; \
		exit 1; \
	else \
		echo "lint: staticcheck not installed, skipping (CI enforces it)"; \
	fi

# The in-repo analysis suite: detflow, ctxflow, lockorder, goroleak,
# atomicfield, unitsafe, errwrap. Built from source every run (it is
# part of the module) and executed by go vet, which handles export data,
# fact propagation between packages (vetx files) and caching.
clusterlint:
	$(GO) build -o bin/clusterlint ./cmd/clusterlint
	$(GO) vet -vettool=$(abspath bin/clusterlint) ./...

# Machine-readable lint: the same seven analyzers, emitting one JSON
# object per package ({"pkg": {"analyzer": [diagnostics]}}) including
# suppressed findings with their //lint:allow justifications. Exits 0;
# consumers filter on "suppressed": false.
lint-json:
	$(GO) build -o bin/clusterlint ./cmd/clusterlint
	$(GO) vet -vettool=$(abspath bin/clusterlint) -json ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race-detector smoke over the acceptance harness: the fleet-race and
# load-race scenarios, shortened fleet and load runs with every daemon
# (clusterd, clusterfleet, loadgen) built -race once. This drives the
# coordinator, supervisor, journal and worker machinery under real
# concurrent load with the detector on — interleavings the unit-test
# race lane cannot reach.
racesmoke:
	$(GO) run ./scripts/acceptance fleet-race load-race

# Coverage profile plus per-package floors on the packages the fault
# injection work leans on (internal/service, internal/mpisim).
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1
	./scripts/cover_floor.sh

# Engine benchmark gate (scripts/benchdiff_engine.sh): the DES and MPISim
# engine benchmarks (BenchmarkDES_*, BenchmarkMPISim_*) and the paper's
# Fig. 4/5 pair sweeps (BenchmarkFigure4, BenchmarkFigure5 in
# internal/bench/osu) of BASE and of the working tree, built from a
# temporary git worktree and run on this machine in 5 alternating rounds.
# Fails when a median ns/op or allocs/op regresses by more than 10% plus
# its absolute floor: an engine regression slows every experiment, and
# the two sweeps are most of a paper regeneration, so CI fails on either.
BASE ?= HEAD^1
benchdiff-engine:
	BASE='$(BASE)' ./scripts/benchdiff_engine.sh

# The differential tier (see TESTING.md): the calendar-queue fast path
# must schedule bit-identically to the reference heap. Runs the
# engine-level trace comparison, the calq fuzz seeds + oracle tests, the
# experiment-level result comparison for every registered kind, the
# topology-aware placement against its sort-based reference, message
# pricing against the straight-line referenceMessageTime, Fig. 5's
# bound-and-bin path (interconnect.Sweep, which draws jitter only when it
# could move a bin and memoises each route shape's draw-free stage)
# against the binned referenceSustainedBandwidth, the jitter bounds
# (xrand.SlowJitterRange and its radius and angle tables) against the
# Box-Muller draws they bound, the µKernel's fixed-point exit against the
# full-length referenceExecute, Fig. 5's histogram percentiles against the
# expanded sample and referenceSpreadAt, the GOMAXPROCS-sharded Fig. 4/5
# sweeps against the serial referenceFigure4/referenceFigure5 (Fig. 5 also
# at the paper's own sweep at 90, 900 and 2,000 bins, at 1, 4 and 5
# trials and on MN4's fat tree), the service's
# job-history list against
# the old map-plus-slice eviction scan, clusterd's job-API responses
# against testdata/views.golden (internal/service), the coordinator's
# member-splicing relay against the decoding refRewriteView on every
# golden response and the FuzzRelay corpus (internal/fleet), and the whole
# des test suite pinned to the reference queue via the build tag. Every
# kind's results must hash to testdata/schedulers.golden
# (internal/experiment) on both queues: the calendar queue in the first
# run, the reference heap under the tag. The placement oracle also covers
# the fat-tree shapes where per-leaf seed pricing has edge cases.
difftest:
	$(GO) test -run 'Differential|Oracle|Fuzz|CondSignal|WorkerReuse|ViewGoldens' -v ./internal/des/... ./internal/experiment/ ./internal/sched/ ./internal/interconnect/ ./internal/simdvec/ ./internal/stats/ ./internal/xrand/ ./internal/bench/osu/ ./internal/service/ ./internal/fleet/
	$(GO) test -tags desrefqueue ./internal/des/...
	$(GO) test -tags desrefqueue -run 'TestDifferentialSchedulers' -v ./internal/experiment/

# Coverage-guided fuzz smoke over the machine-preset validator. The
# committed corpus (internal/machine/testdata/fuzz) replays as regression
# seeds in every plain `go test` run; this target additionally mutates for
# a short budget so CI keeps probing new layer compositions.
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzPresetValidate' -fuzztime 20s ./internal/machine

# CPU + heap profile of a full paper regeneration (every table, figure
# and conclusion, as `make paper` prints them): the standard starting
# point for performance work. Inspect with `go tool pprof cpu.pprof`.
profile:
	$(GO) run ./cmd/clustereval -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "profile: wrote cpu.pprof and mem.pprof (go tool pprof cpu.pprof)"

# Ablations: quantify each modelled mechanism's contribution.
ablation:
	$(GO) test -bench=Ablation -benchtime=1x .

# Reproduce every table and figure of the paper on stdout.
paper:
	$(GO) run ./cmd/clustereval

# Export all tables and figures as CSV into ./paperdata.
export:
	$(GO) run ./cmd/clustereval -out paperdata

# Run the evaluation service on :8080 (see README "Running the
# evaluation service" for the job API).
serve:
	$(GO) run ./cmd/clusterd

# Run a three-shard clusterfleet on :8090 (see README "Running a
# sharded fleet").
fleet:
	$(GO) build -o bin/clusterd ./cmd/clusterd
	$(GO) run ./cmd/clusterfleet -bin bin/clusterd

# The acceptance targets below run scenarios of one harness,
# scripts/acceptance; each invocation builds every binary it needs once.
#
# Durability acceptance: the crash scenario SIGKILLs clusterd
# mid-workload, restarts it against the same journal and asserts every
# job recovers to a consistent state; then the fleet scenario (shard
# kill + full fleet restart through the coordinator).
crashtest:
	$(GO) run ./scripts/acceptance crash fleet

# Fleet durability acceptance alone: kill a shard mid-workload, restart
# the whole fleet, assert exactly-once terminal states under original
# fleet IDs.
fleettest:
	$(GO) run ./scripts/acceptance fleet

# Replication acceptance: three shards with -replicas 2 -ack-quorum 2,
# then rm -rf of the busiest shard's whole data directory + SIGKILL while
# jobs are still running. The supervisor must promote the follower's
# replica and revive the shard with zero lost jobs under their original
# fleet IDs, re-running the jobs the loss caught in flight.
disktest:
	$(GO) run ./scripts/acceptance disk

# Fleet SLO acceptance: three shards, >=5k mixed-kind jobs via loadgen,
# kill-one-shard chaos mid-run, throughput/latency SLOs plus merged
# observability asserts.
loadtest:
	$(GO) run ./scripts/acceptance load

# Build every example, then smoke-run each one — examples are user-facing
# code and must keep compiling and finishing cleanly.
examples:
	$(GO) build ./examples/...
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/custom-machine
	$(GO) run ./examples/topology-explorer
	$(GO) run ./examples/scaling-study
	$(GO) run ./examples/pop-analysis
	$(GO) run ./examples/energy-study

clean:
	rm -rf paperdata test_output.txt bench_output.txt coverage.out bin cpu.pprof mem.pprof
