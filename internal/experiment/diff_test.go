package experiment_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"clustereval/internal/experiment"
)

// diffCases is one modest spec per registered kind — small enough that the
// full kinds × seeds × two-schedulers matrix stays in test-suite budget,
// but every kind still routes through the DES engine's full feature set
// (mpisim collectives, Cond wake-ups).
func diffCases(t *testing.T) []experiment.Spec {
	t.Helper()
	byKind := map[string]experiment.Spec{
		"stream":        {Kind: "stream", Ranks: 4},
		"hybrid-stream": {Kind: "hybrid-stream"},
		"fpu":           {Kind: "fpu"},
		"net":           {Kind: "net", Iters: 20},
		"hpl":           {Kind: "hpl", Nodes: 2},
		"hpcg":          {Kind: "hpcg", Nodes: 2},
		"app":           {Kind: "app", App: "nemo", Nodes: 8},
	}
	kinds := experiment.Kinds()
	cases := make([]experiment.Spec, 0, len(kinds))
	for _, k := range kinds {
		spec, ok := byKind[k]
		if !ok {
			t.Fatalf("kind %q has no differential case: add one so new kinds stay covered", k)
		}
		cases = append(cases, spec)
	}
	return cases
}

// runCanonical canonicalizes and runs spec, returning the result's
// deterministic JSON encoding.
func runCanonical(t *testing.T, spec experiment.Spec) []byte {
	t.Helper()
	canon, _, err := experiment.Canonicalize(spec)
	if err != nil {
		t.Fatalf("canonicalize %+v: %v", spec, err)
	}
	res, err := experiment.Run(context.Background(), canon)
	if err != nil {
		t.Fatalf("run %+v: %v", canon, err)
	}
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// update rewrites testdata/schedulers.golden from this build's results.
var update = flag.Bool("update", false, "rewrite testdata/schedulers.golden")

const schedulersGolden = "testdata/schedulers.golden"

// readSchedulersGolden parses the golden: one "kind/seedN sha256" line
// per case.
func readSchedulersGolden(t *testing.T) map[string]string {
	t.Helper()
	buf, err := os.ReadFile(schedulersGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(buf)), "\n") {
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", schedulersGolden, line)
		}
		want[name] = sum
	}
	return want
}

// TestDifferentialSchedulers is the experiment-level half of the
// differential harness: every registered kind, run at several seeds,
// must produce canonical results whose SHA-256 matches the committed
// golden. `make difftest` runs it on the calendar-queue fast path and
// again with -tags desrefqueue on the reference heap, so both schedulers
// must reproduce the same bytes. If either queue moves the simulated
// time of any event, some kind's result bytes shift and this test names
// it. No kind's result depends on the order of equal-time wake-ups, so
// that order is pinned by TestDifferentialEngines in internal/des.
func TestDifferentialSchedulers(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is not short")
	}
	var want map[string]string
	if !*update {
		want = readSchedulersGolden(t)
	}
	var golden strings.Builder
	cases := 0
	for _, spec := range diffCases(t) {
		for seed := uint64(0); seed < 3; seed++ {
			spec.Seed = seed
			name := fmt.Sprintf("%s/seed%d", spec.Kind, seed)
			cases++
			t.Run(name, func(t *testing.T) {
				sum := sha256.Sum256(runCanonical(t, spec))
				got := hex.EncodeToString(sum[:])
				fmt.Fprintf(&golden, "%s %s\n", name, got)
				if !*update && got != want[name] {
					t.Errorf("scheduler-dependent or drifted result for %s seed %d:\n got  %s\n want %s",
						spec.Kind, seed, got, want[name])
				}
			})
		}
	}
	if *update {
		if err := os.WriteFile(schedulersGolden, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != cases {
		t.Errorf("%s has %d entries for %d cases: regenerate with -update", schedulersGolden, len(want), cases)
	}
}
