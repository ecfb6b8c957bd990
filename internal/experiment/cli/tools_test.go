package cli

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"clustereval/internal/experiment"
	"clustereval/internal/units"
)

// redirect runs f with *file (os.Stdout or os.Stderr) pointing into a
// pipe and returns what f wrote there.
func redirect(t *testing.T, file **os.File, f func()) string {
	t.Helper()
	old := *file
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*file = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	f()
	w.Close()
	*file = old
	return <-done
}

// capture runs f and returns what it printed on stdout; f must succeed.
func capture(t *testing.T, f func() error) string {
	t.Helper()
	var err error
	out := redirect(t, &os.Stdout, func() { err = f() })
	if err != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", err, out)
	}
	return out
}

// captureStderr runs f and returns what it printed on stderr.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	return redirect(t, &os.Stderr, f)
}

func TestFPUBenchWithVariability(t *testing.T) {
	capture(t, func() error { return FPUBench(500, true) })
}

func TestFPUBenchRejectsBadIterations(t *testing.T) {
	if err := FPUBench(0, false); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestStreamBenchVerifyMode(t *testing.T) {
	capture(t, func() error { return StreamBench(20000, 4) })
}

func TestStreamBenchFigureMode(t *testing.T) {
	capture(t, func() error { return StreamBench(0, 0) })
}

func TestNetBenchFlagCombinations(t *testing.T) {
	tests := []struct {
		name    string
		size    units.Bytes
		des     bool
		seed    uint64
		want    []string
		notWant []string
	}{
		{
			name: "defaults",
			size: 256,
			want: []string{
				"Fig. 4: bandwidth of all node pairs (msg size 256 B)",
				"degraded receiver: node 23",
				"Fig. 5: bandwidth distribution over all node pairs",
				"bimodal sizes:",
			},
			notWant: []string{"DES Sendrecv loop"},
		},
		{
			name: "large message",
			size: 4 << 20,
			want: []string{"msg size 4 MiB", "degraded receiver: node 23"},
		},
		{
			name: "des loop",
			size: 256,
			des:  true,
			want: []string{
				"DES Sendrecv loop, nodes 0->100",
				"DES ping-pong latency (half round trip), nodes 0->100:",
			},
		},
		{
			name: "seeded",
			size: 256,
			seed: 42,
			// The degraded node is injected, not noise: it must survive any
			// reseeding of the fabric.
			want: []string{"degraded receiver: node 23", "bimodal sizes:"},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			out := capture(t, func() error { return NetBench(tc.size, tc.des, tc.seed) })
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("output missing %q:\n%s", w, out)
				}
			}
			for _, nw := range tc.notWant {
				if strings.Contains(out, nw) {
					t.Errorf("output unexpectedly contains %q", nw)
				}
			}
		})
	}
}

// TestNetBenchSeedReproducibility pins the -seed contract: the same seed
// yields byte-identical output, and the paper seed (0) differs from a
// reseeded run somewhere in the DES bandwidth numbers.
func TestNetBenchSeedReproducibility(t *testing.T) {
	a := capture(t, func() error { return NetBench(256, true, 7) })
	b := capture(t, func() error { return NetBench(256, true, 7) })
	if a != b {
		t.Error("same seed produced different output")
	}
	c := capture(t, func() error { return NetBench(256, true, 0) })
	if a == c {
		t.Error("seed 7 output identical to paper-default output; seed not plumbed through")
	}
}

func TestHPLBenchVerifyMode(t *testing.T) {
	capture(t, func() error { return HPLBench(120, 32, 4) })
}

func TestHPLBenchModelMode(t *testing.T) {
	capture(t, func() error { return HPLBench(0, 64, 8) })
}

func TestHPCGBenchVerifyMode(t *testing.T) {
	capture(t, func() error { return HPCGBench(8, 4) })
}

func TestHPCGBenchModelMode(t *testing.T) {
	capture(t, func() error { return HPCGBench(0, 4) })
}

func TestAppBenchEachApp(t *testing.T) {
	// The menu is the registry's application catalog, not a local list.
	for _, app := range experiment.AppNames() {
		capture(t, func() error { return AppBench(app, 0) })
	}
}

func TestAppBenchUnknownApp(t *testing.T) {
	if err := AppBench("linpack", 0); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestAppBenchSeededRun(t *testing.T) {
	// A nonzero seed must change only the noise realisation, never break a
	// figure; the sweep stays renderable for any seed.
	capture(t, func() error { return AppBench("nemo", 42) })
}
