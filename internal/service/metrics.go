package service

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// This file implements the minimal slice of the Prometheus exposition
// format the daemon needs: counters, gauges (including callback gauges
// sampled at scrape time) and one-label histogram vectors, rendered in the
// text format every Prometheus-compatible scraper ingests. The repo is
// stdlib-only, so this replaces client_golang.

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram accumulates observations into cumulative buckets, Prometheus
// style: counts[i] is the number of observations <= buckets[i], and the
// implicit +Inf bucket equals the total count.
type Histogram struct {
	mu      sync.Mutex
	buckets []float64 // upper bounds, ascending
	counts  []uint64  // non-cumulative per-bucket counts
	sum     float64
	count   uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.count++
	for i, ub := range h.buckets {
		if v <= ub {
			h.counts[i]++
			return
		}
	}
}

// snapshot returns cumulative bucket counts, the sum and the total count.
func (h *Histogram) snapshot() ([]uint64, float64, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := make([]uint64, len(h.counts))
	var running uint64
	for i, c := range h.counts {
		running += c
		cum[i] = running
	}
	return cum, h.sum, h.count
}

// HistogramVec is a family of histograms partitioned by one label (the
// service uses it for per-job-kind latency).
type HistogramVec struct {
	mu       sync.Mutex
	label    string
	buckets  []float64
	children map[string]*Histogram
}

// With returns (creating if needed) the child histogram for a label value.
func (hv *HistogramVec) With(value string) *Histogram {
	hv.mu.Lock()
	defer hv.mu.Unlock()
	h, ok := hv.children[value]
	if !ok {
		h = &Histogram{
			buckets: hv.buckets,
			counts:  make([]uint64, len(hv.buckets)),
		}
		hv.children[value] = h
	}
	return h
}

// GaugeVec is a family of explicitly-set gauges partitioned by one label
// (the fleet coordinator uses it for per-shard liveness and restart
// counts). Children render sorted by label value, so the exposition is
// byte-stable across scrapes.
type GaugeVec struct {
	mu       sync.Mutex
	label    string
	children map[string]float64
}

// Set records the gauge value for a label value, creating the child on
// first use.
func (gv *GaugeVec) Set(value string, v float64) {
	gv.mu.Lock()
	defer gv.mu.Unlock()
	gv.children[value] = v
}

// snapshot returns the children sorted by label value.
func (gv *GaugeVec) snapshot() ([]string, []float64) {
	gv.mu.Lock()
	defer gv.mu.Unlock()
	labels := make([]string, 0, len(gv.children))
	for l := range gv.children {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	vals := make([]float64, len(labels))
	for i, l := range labels {
		vals[i] = gv.children[l]
	}
	return labels, vals
}

// CounterVec is a family of monotonically-increasing float counters
// partitioned by one label (the daemon uses it for accumulated modeled
// energy per experiment kind). Children render sorted by label value.
type CounterVec struct {
	mu       sync.Mutex
	label    string
	children map[string]float64
}

// Add accumulates v into the child for a label value, creating it on
// first use. Non-positive deltas are ignored: counters only go up.
func (cv *CounterVec) Add(value string, v float64) {
	if v <= 0 {
		return
	}
	cv.mu.Lock()
	defer cv.mu.Unlock()
	cv.children[value] += v
}

// snapshot returns the children sorted by label value.
func (cv *CounterVec) snapshot() ([]string, []float64) {
	cv.mu.Lock()
	defer cv.mu.Unlock()
	labels := make([]string, 0, len(cv.children))
	for l := range cv.children {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	vals := make([]float64, len(labels))
	for i, l := range labels {
		vals[i] = cv.children[l]
	}
	return labels, vals
}

// metricKind tags a registered family for rendering.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeVec
	kindCounterVec
	kindHistogram
)

// family is one named metric with its help text and concrete instance.
type family struct {
	name, help string
	kind       metricKind
	counter    *Counter
	gaugeFn    func() float64
	gaugeVec   *GaugeVec
	counterVec *CounterVec
	hist       *HistogramVec
}

// Registry holds metric families in registration order and renders them in
// the Prometheus text exposition format.
type Registry struct {
	mu       sync.Mutex
	families []*family
	seen     map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{seen: map[string]bool{}}
}

func (r *Registry) register(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[f.name] {
		panic(fmt.Sprintf("service: duplicate metric %q", f.name))
	}
	r.seen[f.name] = true
	r.families = append(r.families, f)
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// GaugeFunc registers a gauge whose value is sampled by fn at scrape time
// — the natural shape for instantaneous readings like queue depth.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: kindGauge, gaugeFn: fn})
}

// GaugeVec registers a one-label family of explicitly-set gauges.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	gv := &GaugeVec{label: label, children: map[string]float64{}}
	r.register(&family{name: name, help: help, kind: kindGaugeVec, gaugeVec: gv})
	return gv
}

// CounterVec registers a one-label family of float counters.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	cv := &CounterVec{label: label, children: map[string]float64{}}
	r.register(&family{name: name, help: help, kind: kindCounterVec, counterVec: cv})
	return cv
}

// HistogramVec registers a one-label histogram family with the given
// bucket upper bounds (ascending; +Inf is implicit).
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	hv := &HistogramVec{
		label:    label,
		buckets:  append([]float64(nil), buckets...),
		children: map[string]*Histogram{},
	}
	r.register(&family{name: name, help: help, kind: kindHistogram, hist: hv})
	return hv
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	if math.IsNaN(v) {
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders every registered family in the text exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
			return err
		}
		switch f.kind {
		case kindCounter:
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", f.name, f.name, f.counter.Value()); err != nil {
				return err
			}
		case kindGauge:
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", f.name, f.name, formatValue(f.gaugeFn())); err != nil {
				return err
			}
		case kindGaugeVec:
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", f.name); err != nil {
				return err
			}
			labels, vals := f.gaugeVec.snapshot()
			for i, l := range labels {
				if _, err := fmt.Fprintf(w, "%s{%s=%q} %s\n", f.name, f.gaugeVec.label, l, formatValue(vals[i])); err != nil {
					return err
				}
			}
		case kindCounterVec:
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", f.name); err != nil {
				return err
			}
			labels, vals := f.counterVec.snapshot()
			for i, l := range labels {
				if _, err := fmt.Fprintf(w, "%s{%s=%q} %s\n", f.name, f.counterVec.label, l, formatValue(vals[i])); err != nil {
					return err
				}
			}
		case kindHistogram:
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", f.name); err != nil {
				return err
			}
			if err := writeHistogramVec(w, f.name, f.hist); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogramVec(w io.Writer, name string, hv *HistogramVec) error {
	hv.mu.Lock()
	labels := make([]string, 0, len(hv.children))
	for l := range hv.children {
		labels = append(labels, l)
	}
	hv.mu.Unlock()
	sort.Strings(labels)

	for _, l := range labels {
		h := hv.With(l)
		cum, sum, count := h.snapshot()
		for i, ub := range hv.buckets {
			if _, err := fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d\n",
				name, hv.label, l, formatValue(ub), cum[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, hv.label, l, count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum{%s=%q} %s\n", name, hv.label, l, formatValue(sum)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, hv.label, l, count); err != nil {
			return err
		}
	}
	return nil
}
