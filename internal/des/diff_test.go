package des

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"clustereval/internal/units"
	"clustereval/internal/xrand"
)

// runScripted executes a seeded synthetic workload on eng and returns the
// event trace: one line per observable step, in execution order. Every
// process draws from its own generator (seeded by workload seed and process
// index, not by execution order), so two engines that schedule identically
// produce byte-identical traces — and any divergence in the queue
// discipline shows up as a trace diff, not a flaky hang.
//
// The workload deliberately crosses every scheduling feature: quantized
// delays (equal-timestamp batches), mid-run spawns, a shared Cond with
// signal and broadcast wakers, and a capacity-limited Resource.
func runScripted(t *testing.T, eng *Engine, seed uint64) []string {
	t.Helper()
	var trace []string
	log := func(p *Proc, what string) {
		trace = append(trace, fmt.Sprintf("t=%.6f %s %s", float64(p.Now()), p.Name, what))
	}
	cond := eng.NewCond("diff")
	res := eng.NewResource("diff", 2)
	const nProcs = 8

	var spawnWorker func(name string, r xrand.Rand, depth int)
	spawnWorker = func(name string, r xrand.Rand, depth int) {
		eng.Spawn(name, func(p *Proc) {
			steps := 4 + r.Intn(8)
			for s := 0; s < steps; s++ {
				switch r.Intn(5) {
				case 0, 1:
					d := units.Seconds(float64(r.Intn(10)) * 0.25)
					p.Delay(d)
					log(p, fmt.Sprintf("delay[%d]", s))
				case 2:
					res.Acquire(p)
					log(p, "acquired")
					p.Delay(units.Seconds(float64(1+r.Intn(4)) * 0.25))
					res.Release()
					log(p, "released")
				case 3:
					if depth < 2 && r.Intn(2) == 0 {
						child := name + "." + string(rune('a'+s))
						spawnWorker(child, xrand.New(xrand.MixN(seed, uint64(depth+1), uint64(s))), depth+1)
						log(p, "spawned "+child)
					} else {
						p.Delay(0.5)
						log(p, "delay-alt")
					}
				case 4:
					cond.Wait(p)
					log(p, "woken")
				}
			}
			log(p, "done")
		})
	}
	for i := 0; i < nProcs; i++ {
		spawnWorker(fmt.Sprintf("w%d", i), xrand.New(xrand.MixN(seed, uint64(i))), 0)
	}
	// The waker keeps Cond waiters from deadlocking: it alternates Signal
	// and Broadcast on a fixed cadence, then broadcasts until nobody waits.
	eng.Spawn("waker", func(p *Proc) {
		for tick := 0; tick < 400; tick++ {
			p.Delay(0.25)
			if tick%3 == 0 {
				cond.Broadcast()
			} else {
				cond.Signal()
			}
		}
		for cond.NumWaiters() > 0 {
			cond.Broadcast()
			p.Delay(0.25)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return trace
}

// update rewrites testdata/traces.golden from this build's traces.
var update = flag.Bool("update", false, "rewrite testdata/traces.golden")

const tracesGolden = "testdata/traces.golden"

// TestDifferentialEngines is the engine-level half of the differential
// harness: the calendar-queue fast path must schedule bit-identically to
// the reference heap on seeded workloads covering delays, equal-time
// batches, mid-run spawns, Cond wake-ups, and Resource contention. The
// trace of New's engine must also hash to the committed golden, so the
// desrefqueue build, where New and NewReference share one queue, still
// checks the reference heap against known-good bytes.
func TestDifferentialEngines(t *testing.T) {
	want := map[string]string{}
	if !*update {
		buf, err := os.ReadFile(tracesGolden)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(buf)), "\n") {
			name, sum, _ := strings.Cut(line, " ")
			want[name] = sum
		}
	}
	var golden strings.Builder
	for seed := uint64(0); seed < 5; seed++ {
		seed := seed
		name := fmt.Sprintf("seed%d", seed)
		t.Run(name, func(t *testing.T) {
			fast := runScripted(t, New(), seed)
			ref := runScripted(t, NewReference(), seed)
			if len(fast) != len(ref) {
				t.Fatalf("trace length: fast %d, reference %d", len(fast), len(ref))
			}
			for i := range ref {
				if fast[i] != ref[i] {
					t.Fatalf("trace diverges at step %d:\n  fast: %s\n  ref:  %s", i, fast[i], ref[i])
				}
			}
			if len(fast) == 0 {
				t.Fatal("empty trace: workload did nothing")
			}
			sum := sha256.Sum256([]byte(strings.Join(fast, "\n")))
			got := hex.EncodeToString(sum[:])
			fmt.Fprintf(&golden, "%s %s\n", name, got)
			if !*update && got != want[name] {
				t.Errorf("trace hash drifted from %s:\n got  %s\n want %s", tracesGolden, got, want[name])
			}
		})
	}
	if *update {
		if err := os.WriteFile(tracesGolden, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDifferentialEnginesClockAgree pins that both engines also agree on
// the final clock, not just the step order.
func TestDifferentialEnginesClockAgree(t *testing.T) {
	fast, ref := New(), NewReference()
	runScripted(t, fast, 42)
	runScripted(t, ref, 42)
	if fast.Now() != ref.Now() {
		t.Fatalf("final clock: fast %v, reference %v", fast.Now(), ref.Now())
	}
}

// TestCondSignalBoundedGrowth is the regression test for the Signal
// slice-shift fix: churning many signals through a Cond must not grow the
// waiter backing array beyond a small multiple of the peak concurrent
// waiter count. (The old `waiters = waiters[1:]` re-slice let append keep
// shift-copying into an array that crept along its backing storage.)
func TestCondSignalBoundedGrowth(t *testing.T) {
	e := New()
	c := e.NewCond("churn")
	const waiters = 4
	const rounds = 2000
	for i := 0; i < waiters; i++ {
		e.Spawn(fmt.Sprintf("waiter%d", i), func(p *Proc) {
			for r := 0; r < rounds; r++ {
				c.Wait(p)
			}
		})
	}
	e.Spawn("signaller", func(p *Proc) {
		for r := 0; r < rounds; r++ {
			p.Delay(1)
			for i := 0; i < waiters; i++ {
				c.Signal()
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.waitersCap(); got > 4*waiters {
		t.Fatalf("waiter backing array grew to %d after %d signal rounds; want <= %d (peak %d waiters)",
			got, rounds, 4*waiters, waiters)
	}
}

// TestWorkerReuse pins the proc-pool contract: goroutines parked after one
// engine run are reused by the next, instead of every Spawn starting a
// fresh goroutine.
func TestWorkerReuse(t *testing.T) {
	const procs = 64
	runOnce := func() {
		e := New()
		for i := 0; i < procs; i++ {
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) { p.Delay(1) })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	runOnce()
	after1 := idleWorkers()
	if after1 < procs {
		t.Fatalf("idle workers after first run = %d, want >= %d (finished procs must park)", after1, procs)
	}
	for i := 0; i < 5; i++ {
		runOnce()
	}
	if after6 := idleWorkers(); after6 > after1 {
		t.Fatalf("idle workers grew from %d to %d across reruns: pool is not reusing parked goroutines", after1, after6)
	}
}
