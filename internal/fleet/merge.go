package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"clustereval/internal/service"
)

// This file merges the shards' observability surfaces into fleet-wide
// views: /v1/metrics re-labels every shard series with shard="<name>"
// and sums counters into aggregate fleet_* series; /v1/healthz nests the
// per-shard reports under one fleet judgement.

// promFamily is one parsed metric family from a shard's exposition.
type promFamily struct {
	name    string
	help    string
	typ     string
	samples []promSample
}

type promSample struct {
	// series is the full series name including any label set, e.g.
	// `clusterd_job_duration_seconds_bucket{kind="net",le="0.1"}`.
	series string
	value  float64
}

// parsePromText parses the subset of the Prometheus text format the
// in-repo registry emits: # HELP / # TYPE lines and `series value`
// samples. Unknown lines are skipped rather than failing the merge — a
// scrape that half-parses still beats a blind spot.
func parsePromText(text string) map[string]*promFamily {
	fams := map[string]*promFamily{}
	family := func(name string) *promFamily {
		f, ok := fams[name]
		if !ok {
			f = &promFamily{name: name}
			fams[name] = f
		}
		return f
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			family(name).help = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			family(name).typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		series, valText := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valText, 64)
		if err != nil {
			continue
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
		}
		// Histogram children belong to their base family for TYPE
		// grouping.
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		f := family(base)
		if f.typ != "histogram" {
			f = family(name)
		}
		f.samples = append(f.samples, promSample{series: series, value: val})
	}
	return fams
}

// withShardLabel injects shard="name" into a series, after any existing
// labels.
func withShardLabel(series, shard string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		// name{k="v"} -> name{k="v",shard="s0"}
		return series[:len(series)-1] + `,shard="` + shard + `"}`
	}
	return series + `{shard="` + shard + `"}`
}

// handleMetrics renders the fleet-wide exposition: the coordinator's own
// registry first, then aggregate fleet_<name> sums of every label-less
// shard counter, then each shard family re-labeled with shard="<name>".
// Ordering is fully deterministic (families and shards sorted) so
// consecutive scrapes diff cleanly.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = c.reg.WriteText(w)

	type shardScrape struct {
		name string
		fams map[string]*promFamily
	}
	var scrapes []shardScrape
	for _, st := range c.liveShards() {
		resp, err := c.forward(r.Context(), st, http.MethodGet, "/v1/metrics", nil)
		if err != nil {
			c.mergeScrapeErr.Inc()
			continue
		}
		text, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
		resp.Body.Close()
		if err != nil {
			c.mergeScrapeErr.Inc()
			continue
		}
		st.mu.Lock()
		name := st.decl.Name
		st.mu.Unlock()
		scrapes = append(scrapes, shardScrape{name: name, fams: parsePromText(string(text))})
	}

	// Aggregates: sum every counter (and the queue-depth gauge, whose sum
	// is the fleet's total backlog) across shards. Labeled counters like
	// clusterd_energy_joules_total{kind="hpl"} sum per label set, so the
	// fleet exposes one per-kind energy series over all shards.
	type agg struct {
		help, typ string
		sums      map[string]float64 // keyed by series, labels included
		shards    int
	}
	aggs := map[string]*agg{}
	for _, s := range scrapes {
		famNames := sortedKeys(s.fams)
		for _, fn := range famNames {
			f := s.fams[fn]
			if f.typ != "counter" && f.name != "clusterd_queue_depth" {
				continue
			}
			a, ok := aggs[f.name]
			if !ok {
				a = &agg{help: f.help, typ: f.typ, sums: map[string]float64{}}
				aggs[f.name] = a
			}
			a.shards++
			for _, smp := range f.samples {
				a.sums[smp.series] += smp.value
			}
		}
	}
	for _, name := range sortedKeys(aggs) {
		a := aggs[name]
		if len(a.sums) == 0 {
			continue
		}
		fmt.Fprintf(w, "# HELP fleet_%s Fleet-wide sum over %d shard(s): %s\n", name, a.shards, a.help)
		fmt.Fprintf(w, "# TYPE fleet_%s %s\n", name, a.typ)
		series := make([]string, 0, len(a.sums))
		for s := range a.sums {
			series = append(series, s)
		}
		sort.Strings(series)
		for _, s := range series {
			fmt.Fprintf(w, "fleet_%s %s\n", s, formatFloat(a.sums[s]))
		}
	}

	// Per-shard series, grouped per family so each family's TYPE header
	// appears once with every shard's samples beneath it.
	famNames := map[string]*promFamily{}
	for _, s := range scrapes {
		for fn, f := range s.fams {
			if _, ok := famNames[fn]; !ok {
				famNames[fn] = f
			}
		}
	}
	for _, fn := range sortedKeys(famNames) {
		f := famNames[fn]
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		if f.typ != "" {
			fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		}
		for _, s := range scrapes {
			sf, ok := s.fams[fn]
			if !ok {
				continue
			}
			for _, smp := range sf.samples {
				fmt.Fprintf(w, "%s %s\n", withShardLabel(smp.series, s.name), formatFloat(smp.value))
			}
		}
	}
}

// sortedKeys returns a map's keys in sorted order — ranging over the map
// directly while writing would leak Go's randomized iteration order into
// the exposition.
func sortedKeys[V any](m map[string]*V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// handleHealthz merges every shard's health report: per-shard JSON under
// "shards", plus fleet aggregates — total workers, summed queue depth
// and capacity, the worst saturation, and each shard's breaker state.
// The fleet is "ok" when every known shard is live and ok, "degraded"
// when any shard is down, dead or degraded — the fleet still serves, so
// the status code stays 200 either way.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type shardHealth struct {
		Live   bool           `json:"live"`
		Dead   bool           `json:"dead,omitempty"`
		Report map[string]any `json:"report,omitempty"`
		Error  string         `json:"error,omitempty"`
	}
	shards := map[string]shardHealth{}
	status := "ok"
	workers, queueDepth, queueCap := 0.0, 0.0, 0.0
	maxSaturation := 0.0
	liveCount := 0
	for _, st := range c.allShards() {
		st.mu.Lock()
		name := st.decl.Name
		live, dead, url := st.live, st.dead, st.baseURL
		st.mu.Unlock()
		sh := shardHealth{Live: live, Dead: dead}
		if !live || url == "" {
			status = "degraded"
			shards[name] = sh
			continue
		}
		resp, err := c.forward(r.Context(), st, http.MethodGet, "/v1/healthz", nil)
		if err != nil {
			c.mergeScrapeErr.Inc()
			sh.Error = err.Error()
			status = "degraded"
			shards[name] = sh
			continue
		}
		var report map[string]any
		err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&report)
		resp.Body.Close()
		if err != nil {
			sh.Error = "undecodable healthz: " + err.Error()
			status = "degraded"
			shards[name] = sh
			continue
		}
		sh.Report = report
		shards[name] = sh
		liveCount++
		if s, _ := report["status"].(string); s != "ok" {
			status = "degraded"
		}
		if v, ok := report["workers"].(float64); ok {
			workers += v
		}
		if v, ok := report["queue_depth"].(float64); ok {
			queueDepth += v
		}
		if v, ok := report["queue_capacity"].(float64); ok {
			queueCap += v
		}
		if v, ok := report["queue_saturation"].(float64); ok && v > maxSaturation {
			maxSaturation = v
		}
	}
	if liveCount == 0 {
		status = "down"
	}
	service.WriteJSON(w, http.StatusOK, map[string]any{
		"status":               status,
		"uptime_seconds":       c.Uptime().Seconds(),
		"live_shards":          liveCount,
		"known_shards":         len(c.allShards()),
		"workers":              workers,
		"queue_depth":          queueDepth,
		"queue_capacity":       queueCap,
		"max_queue_saturation": maxSaturation,
		"shards":               shards,
	})
}
