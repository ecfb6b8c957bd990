// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload from a seed inside a single process, checks the
// workload's outputs, and prints one JSON result line as the last line of
// standard output: the end-to-end metrics with tracing off, the per-layer
// metrics from a traced run with tracing on. README.md describes the
// workloads, the metrics and which layer should move which metric.
//
// Run it from the repository root, which it reads the clustereval goldens
// from and keeps its scratch files under (.bench_build/):
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
//
// It starts no child process. Every server, service and temp directory it
// opens is closed or removed before it returns, on success, on a failed
// check, on interrupt and on its own deadline alike.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// runDeadline bounds one run; past it the run is abandoned cleanly.
const runDeadline = 170 * time.Second

// buildDir holds everything the benchmark leaves in the checkout: the
// binary, the Go build cache, span files and, while a run lasts, its temp
// directories.
const buildDir = ".bench_build"

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 0, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "0 reports the end-to-end metrics; 1 reports the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	o := options{
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
		trace:     *traced == 1,
		goldenDir: filepath.Join("cmd", "clustereval", "testdata"),
		spanFile:  filepath.Join(buildDir, "spans-"+w.name+".jsonl"),
	}
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	fmt.Fprintln(stdout, header(w.name, o))
	res, m, err := execute(ctx, w, o, filepath.Join(buildDir, "run"))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "# %d operations timed over %.3f s (%d set-ups)\n", len(m.ops), m.wall.Seconds(), len(m.setups))
	for _, p := range m.problems {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", w.name, p)
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs w in a fresh temp directory under tmpRoot and removes it
// afterwards, whatever the outcome.
func execute(ctx context.Context, w workload, o options, tmpRoot string) (*result, *measured, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, w.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	o.dir = dir

	m, err := w.run(ctx, o)
	if err != nil {
		return nil, nil, err
	}
	if o.trace {
		if err := probe(ctx, o, m); err != nil {
			return nil, nil, fmt.Errorf("probes: %w", err)
		}
		if err := writeSpans(m.spans, o.spanFile); err != nil {
			return nil, nil, err
		}
	}
	return m.result(o.trace), m, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
