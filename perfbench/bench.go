package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"syscall"
	"time"

	"clustereval/internal/journal"
)

// options configure one benchmark run.
type options struct {
	seed    uint64
	seconds time.Duration // length of the timed phase
	trace   bool
	// dir is the run's private temp directory; every journal, replica
	// store and probe file lives under it and goes with it.
	dir string
	// goldenDir holds the committed clustereval goldens, read only.
	goldenDir string
	// spanFile receives the traced run's spans as JSON lines.
	spanFile string
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, o options) (*measured, error)
}

var workloads = []workload{
	{"paper", "regenerates every table, figure and conclusion: sched, interconnect, topology, xrand and simdvec do the work, the service is idle", runPaper},
	{"fleet-hot", "a 3-shard fleet answering warmed specs over HTTP with full job histories: forwarding, canonicalisation, cache hits, no simulation", runHot},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports all of them: on paper one operation
// is one full regeneration, which is done when the call returns, so its
// submit and e2e times coincide.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"submit_p50_ms", "ms"},
	{"submit_p99_ms", "ms"},
	{"e2e_p50_ms", "ms"},
	{"e2e_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A workload that does not exercise
// a layer reports 0 for it; the probes run on every workload.
var perLayer = []metricDef{
	{"paper.table4_s", "s"}, {"paper.table4_allocs", "count"},
	{"paper.fig1_s", "s"}, {"paper.fig1_allocs", "count"},
	{"paper.fig4_s", "s"}, {"paper.fig4_allocs", "count"},
	{"paper.fig5_s", "s"}, {"paper.fig5_allocs", "count"},
	{"paper.fig8_s", "s"}, {"paper.fig8_allocs", "count"},
	{"paper.fig9_s", "s"}, {"paper.fig9_allocs", "count"},
	{"paper.fig10_s", "s"}, {"paper.fig10_allocs", "count"},
	{"paper.fig11_s", "s"}, {"paper.fig11_allocs", "count"},
	{"paper.fig13_s", "s"}, {"paper.fig13_allocs", "count"},
	{"paper.fig15_s", "s"}, {"paper.fig15_allocs", "count"},
	{"paper.fig16_s", "s"}, {"paper.fig16_allocs", "count"},
	{"paper.conclusions_s", "s"}, {"paper.conclusions_allocs", "count"},
	{"paper.other_s", "s"},

	{"sched.allocate_us", "us"},
	{"topology.hops_ns", "ns"},
	{"interconnect.message_time_ns", "ns"},
	{"mpisim.measure_pair_us", "us"},
	{"experiment.run_us.net", "us"},
	{"experiment.run_us.stream", "us"},
	{"experiment.run_us.hpl", "us"},
	{"experiment.run_us.hpcg", "us"},
	{"experiment.canonicalize_us", "us"},
	{"journal.append_us_p50", "us"},
	{"journal.append_us_p99", "us"},
	{"journal.replica_ingest_us", "us"},

	{"service.cache_hits", "count"},
	{"service.cache_misses", "count"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.shed", "count"},
	{"service.queue_rejected", "count"},
	{"fleet.direct_p50_ms", "ms"},
	{"fleet.forward_overhead_ms", "ms"},
	{"fleet.forward_errors", "count"},
	{"fleet.forward_shed", "count"},

	{"trace.untraced_ms", "ms"},
	{"trace.traced_ms", "ms"},
	{"trace_overhead_ratio", "ratio"},
	{"error_ratio", "ratio"},
}

// op is one timed operation.
type op struct {
	submit time.Duration // call until acknowledged
	e2e    time.Duration // call until the client saw it finish
	traced bool          // spans were recorded for it
	direct bool          // fleet-hot: sent straight to the owning shard
}

// traceOp reports whether operation i records spans: in a traced run every
// second operation does, so the traced and untraced operations the tracing
// overhead compares ran under the same host conditions.
func traceOp(tr *tracer, i int) bool { return tr != nil && i%2 == 1 }

// measured is what one workload run observed.
type measured struct {
	setups    []time.Duration // each set-up, from its start to ready
	wall      time.Duration   // the timed phase
	ops       []op
	attempted int
	failed    int
	problems  []string           // failed output checks
	layers    map[string]float64 // per-layer values, traced runs only
	spans     *tracer            // traced runs only
	// appends are the journal appends one operation of the workload makes
	// on a durable shard, the shapes the journal probes replay; nil means
	// those of a job that misses the cache.
	appends [][]journal.Record
}

func (m *measured) fail(format string, args ...any) {
	m.failed++
	if len(m.problems) < 20 {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

// setOverhead records the workload's primary latency, stat of the e2e or
// submit times, over the untraced and the traced operations, and the
// tracing overhead between them.
func (m *measured) setOverhead(stat func([]time.Duration) time.Duration, e2e bool) {
	untraced := stat(latencies(m.ops, func(o op) bool { return !o.traced && !o.direct }, e2e))
	traced := stat(latencies(m.ops, func(o op) bool { return o.traced }, e2e))
	m.layers["trace.untraced_ms"] = ms(untraced)
	m.layers["trace.traced_ms"] = ms(traced)
	m.layers["trace_overhead_ratio"] = ratio(float64(traced), float64(untraced)) - 1
}

// add folds the outcome counts of another part of the same run into m.
func (m *measured) add(o *measured) {
	m.attempted += o.attempted
	m.failed += o.failed
	m.problems = append(m.problems, o.problems...)
}

// merge adds a concurrent client's operations and outcome counts to m.
func (m *measured) merge(o *measured) {
	m.add(o)
	m.ops = append(m.ops, o.ops...)
}

// latencies returns the e2e (or else submit) times of the ops keep
// selects.
func latencies(ops []op, keep func(op) bool, e2e bool) []time.Duration {
	var out []time.Duration
	for _, o := range ops {
		switch {
		case !keep(o):
		case e2e:
			out = append(out, o.e2e)
		default:
			out = append(out, o.submit)
		}
	}
	return out
}

func anyOp(op) bool { return true }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (m *measured) result(trace bool) *result {
	r := &result{
		Correct:   len(m.problems) == 0 && m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metric{},
	}
	if trace {
		m.layers["error_ratio"] = ratio(float64(m.failed), float64(m.attempted))
		for _, d := range perLayer {
			r.Metrics[d.name] = metric{finite(m.layers[d.name]), d.unit}
		}
		return r
	}
	v := m.summary()
	v["setup_s"] = median(m.setups).Seconds()
	v["peak_rss_mb"] = peakRSSMB()
	for _, d := range endToEnd {
		r.Metrics[d.name] = metric{finite(v[d.name]), d.unit}
	}
	return r
}

// summary computes throughput and latency percentiles over all timed
// operations.
func (m *measured) summary() map[string]float64 {
	s, e := latencies(m.ops, anyOp, false), latencies(m.ops, anyOp, true)
	return map[string]float64{
		"jobs_per_s":    ratio(float64(len(m.ops)), m.wall.Seconds()),
		"submit_p50_ms": ms(percentile(s, 0.50)),
		"submit_p99_ms": ms(percentile(s, 0.99)),
		"e2e_p50_ms":    ms(percentile(e, 0.50)),
		"e2e_p99_ms":    ms(percentile(e, 0.99)),
	}
}

// percentile is the nearest-rank percentile of ds; 0 for no samples.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func median(ds []time.Duration) time.Duration { return percentile(ds, 0.5) }

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// finite keeps the result line encodable: JSON has no NaN or infinity.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: getrusage:", err)
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
