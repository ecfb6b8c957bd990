package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"clustereval/internal/experiment"
)

var goldenDir = filepath.Join("..", "cmd", "clustereval", "testdata")

// goroutines counts live goroutines other than the simulator's parked DES
// workers, which internal/des keeps on a process-wide free list by design.
func goroutines() (int, string) {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	var kept []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "clustereval/internal/des.(*worker).loop") {
			continue
		}
		count++
		kept = append(kept, g)
	}
	return count, strings.Join(kept, "\n\n")
}

// requireClean waits for the goroutine count to come back to base and
// checks that the temp root holds nothing.
func requireClean(t *testing.T, base int, tmpRoot string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n, stacks := goroutines()
		if n <= base {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlived the run (started with %d):\n%s", n-base, base, stacks)
		}
		time.Sleep(20 * time.Millisecond)
	}
	entries, err := os.ReadDir(tmpRoot)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("temp root still holds %s", e.Name())
	}
}

// shortPass configures a short run whose spans and temp dirs go under root.
func shortPass(root string, w workload, seed uint64, trace bool, golden string) options {
	return options{
		seed: seed, seconds: 600 * time.Millisecond, trace: trace, goldenDir: golden,
		spanFile: filepath.Join(root, "spans-"+w.name+".jsonl"),
	}
}

// TestRunsLeaveNothingBehind runs a short pass of every workload, traced
// and untraced, and checks after each that every goroutine it started has
// ended and its temp directories are gone. On the traced paper pass the
// artefact self times must add up to the traced regeneration, less only
// the root span's own bookkeeping.
func TestRunsLeaveNothingBehind(t *testing.T) {
	root := t.TempDir()
	tmpRoot := filepath.Join(root, "tmp")
	base, _ := goroutines()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, m, err := execute(context.Background(), w, shortPass(root, w, 0, trace, goldenDir), tmpRoot)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%t: correct=%t attempted=%d failed=%d problems=%v",
					w.name, trace, res.Correct, res.Attempted, res.Failed, m.problems)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			if w.name == "paper" && trace {
				var sum float64
				for name, v := range res.Metrics {
					if strings.HasPrefix(name, "paper.") && strings.HasSuffix(name, "_s") {
						sum += v.Value
					}
				}
				regen := res.Metrics["trace.traced_ms"].Value / 1000
				if sum > regen || sum < 0.99*regen {
					t.Errorf("artefact self times sum to %.4f s, the traced regeneration takes %.4f s", sum, regen)
				}
			}
			requireClean(t, base, tmpRoot)
		}
	}
}

// TestFailedCheckLeavesNothingBehind regenerates the paper against a
// Table IV golden with one wrong cell: the run must report the failure and
// still clean up.
func TestFailedCheckLeavesNothingBehind(t *testing.T) {
	root := t.TempDir()
	tmpRoot := filepath.Join(root, "tmp")
	base, _ := goroutines()
	bad := t.TempDir()
	for _, name := range goldenFiles {
		b, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == goldenFiles["table4"] {
			b = bytes.Replace(b, []byte("1.25"), []byte("9.99"), 1)
		}
		if err := os.WriteFile(filepath.Join(bad, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w, _ := lookupWorkload("paper")
	res, _, err := execute(context.Background(), w, shortPass(root, w, 3, false, bad), tmpRoot)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted {
		t.Errorf("a Table IV golden mismatch passed: correct=%t failed=%d/%d", res.Correct, res.Failed, res.Attempted)
	}
	requireClean(t, base, tmpRoot)
}

// TestInterruptedRunLeavesNothingBehind cancels every workload early in
// its run: fleet-hot during set-up and while warming its pool, paper
// inside a regeneration.
func TestInterruptedRunLeavesNothingBehind(t *testing.T) {
	root := t.TempDir()
	tmpRoot := filepath.Join(root, "tmp")
	base, _ := goroutines()
	for _, w := range workloads {
		for _, after := range []time.Duration{50 * time.Millisecond, 400 * time.Millisecond} {
			ctx, cancel := context.WithTimeout(context.Background(), after)
			o := shortPass(root, w, 2, false, goldenDir)
			o.seconds = time.Minute
			_, _, err := execute(ctx, w, o, tmpRoot)
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%s interrupted after %v: err = %v, want the context's", w.name, after, err)
			}
			requireClean(t, base, tmpRoot)
		}
	}
}

// TestSeedsFixTheInputs pins the input streams to the seed: one seed
// reproduces them byte for byte, another changes them, and every entry of
// the cache-missing stream has its own cache key.
func TestSeedsFixTheInputs(t *testing.T) {
	const n = 50000
	unique := func(seed uint64) []byte {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		for i := range 2000 {
			if err := enc.Encode(uniqueSpec(seed, i)); err != nil {
				t.Fatal(err)
			}
		}
		return b.Bytes()
	}
	hot := func(seed uint64) []byte { return []byte(strings.Join(hotReplay(seed), "\n")) }
	for _, seed := range []uint64{0, 1, 42} {
		if !bytes.Equal(unique(seed), unique(seed)) {
			t.Errorf("seed %d: cache-missing stream not reproducible", seed)
		}
		if !bytes.Equal(hot(seed), hot(seed)) {
			t.Errorf("seed %d: fleet-hot pool not reproducible", seed)
		}
		if got := len(distinct(hotReplay(seed))); got < 2 || got > 64 {
			t.Errorf("seed %d: fleet-hot replays %d distinct specs, want 2..64 from the 64-entry pool", seed, got)
		}
	}
	if bytes.Equal(unique(1), unique(2)) {
		t.Error("seeds 1 and 2 give the same cache-missing stream")
	}
	if bytes.Equal(hot(1), hot(2)) {
		t.Error("seeds 1 and 2 give the same fleet-hot pool")
	}

	keys := make(map[string]int, n)
	for i := range n {
		_, key, err := experiment.Canonicalize(uniqueSpec(7, i))
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if j, dup := keys[key]; dup {
			t.Fatalf("specs %d and %d share cache key %s", j, i, key)
		}
		keys[key] = i
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the root
		{ID: 5, Parent: 2, Name: "a.child", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metrics in
// step with what the benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
