package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clustereval/internal/fleet"
	"clustereval/internal/journal"
	"clustereval/internal/service"
)

const (
	// clients is the number of goroutines and HTTP connections that warm
	// the pool, and the worker count of each shard: the reference host has
	// two cores.
	clients = 2
	// hotShards is the fleet's shard count. The shards keep no journal:
	// a hit's cost is then the fleet's own CPU work, not the fsyncs of a
	// virtual disk shared with other hosts, whose latency drifts by half
	// within minutes. The journal's append and a follower's ingest are
	// timed by the probes instead.
	hotShards = 3
	// hotSetups is how many times fleet-hot builds and warms its fleet;
	// the median is reported.
	hotSetups = 5
	// history is each shard's bound on finished jobs kept, service.Config's
	// default. Set-up fills it, so the timed phase sees the steady state of
	// a long-running daemon, where every new job evicts an old one, from its
	// first hit on.
	history = 4096
	// directSample is how many hits the traced run sends straight to the
	// owning shard, interleaved with as many through the coordinator, to
	// split the coordinator's forwarding cost out.
	directSample = 1000
)

// hotFleet is an in-process fleet: shards behind httptest servers, fronted
// by a coordinator behind another.
type hotFleet struct {
	svcs   []*service.Service
	shards []*httptest.Server
	url    map[string]string // shard name → base URL
	coord  *fleet.Coordinator
	front  *httptest.Server
	client *http.Client
	warm   map[string]warmHit // request body → its warm-up outcome
}

// warmHit is what warming one pool spec returned.
type warmHit struct {
	result []byte // the job's result JSON as the coordinator served it
	canon  []byte // the same result re-encoded, as comparable to a shard's
	shard  string // the owning shard, from the fleet job ID's prefix
	view   hotView
}

// hotView is the part of a fleet job view the benchmark reads.
type hotView struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
	Spec   json.RawMessage `json:"spec"`
	Key    string          `json:"spec_hash"`
}

func openFleet() (*hotFleet, error) {
	f := &hotFleet{url: map[string]string{}}
	var decl []fleet.Shard
	for i := range hotShards {
		name := shardName(i)
		svc := service.New(service.Config{Workers: clients, ShardName: name, MaxJobs: history})
		f.svcs = append(f.svcs, svc)
		srv := httptest.NewServer(service.NewServer(svc))
		f.shards = append(f.shards, srv)
		f.url[name] = srv.URL
		decl = append(decl, fleet.Shard{Name: name, BaseURL: srv.URL})
	}
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{}, decl)
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	f.front = httptest.NewServer(coord)
	f.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	return f, nil
}

func shardName(i int) string { return fmt.Sprintf("s%d", i) }

// close stops the front server, drains every shard and stops its server.
func (f *hotFleet) close() error {
	if f.front != nil {
		f.front.Close()
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	var first error
	for _, svc := range f.svcs {
		if err := closeService(svc); err != nil && first == nil {
			first = err
		}
	}
	for _, srv := range f.shards {
		srv.Close()
	}
	return first
}

// post submits one spec body to base; the view is decoded on 200 and 202.
func (f *hotFleet) post(ctx context.Context, base, body string) (hotView, int, error) {
	return f.do(ctx, http.MethodPost, base+"/v1/jobs", strings.NewReader(body))
}

func (f *hotFleet) do(ctx context.Context, method, url string, body io.Reader) (hotView, int, error) {
	var v hotView
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return v, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return v, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return v, resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		err = json.Unmarshal(raw, &v)
	}
	return v, resp.StatusCode, err
}

// warmUp runs every pool spec once through the fleet and keeps each
// result: afterwards every pool spec is a cache hit on its owning shard.
func (f *hotFleet) warmUp(ctx context.Context, pool []string) error {
	f.warm = make(map[string]warmHit, len(pool))
	var mu sync.Mutex
	var next atomic.Int64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(pool) && errs[c] == nil; i = int(next.Add(1) - 1) {
				var w warmHit
				w, errs[c] = f.warmOne(ctx, pool[i])
				mu.Lock()
				f.warm[pool[i]] = w
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warming the pool: %w", err)
		}
	}
	return nil
}

func (f *hotFleet) warmOne(ctx context.Context, body string) (warmHit, error) {
	v, code, err := f.post(ctx, f.front.URL, body)
	if err != nil {
		return warmHit{}, err
	}
	if code != http.StatusAccepted && code != http.StatusOK {
		return warmHit{}, fmt.Errorf("submit %s: HTTP %d", body, code)
	}
	for v.State != string(service.StateDone) {
		if v.State != string(service.StateQueued) && v.State != string(service.StateRunning) {
			return warmHit{}, fmt.Errorf("job %s ended %s", v.ID, v.State)
		}
		select {
		case <-ctx.Done():
			return warmHit{}, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		id := v.ID
		if v, code, err = f.do(ctx, http.MethodGet, f.front.URL+"/v1/jobs/"+id, nil); err != nil {
			return warmHit{}, fmt.Errorf("polling %s: %w", id, err)
		}
		if code != http.StatusOK {
			return warmHit{}, fmt.Errorf("polling %s: HTTP %d", id, code)
		}
	}
	shard, _, ok := strings.Cut(v.ID, "-")
	if !ok || f.url[shard] == "" {
		return warmHit{}, fmt.Errorf("fleet job ID %q names no shard", v.ID)
	}
	canon, err := reencode(v.Result)
	if err != nil {
		return warmHit{}, err
	}
	return warmHit{result: v.Result, canon: canon, shard: shard, view: v}, nil
}

// fillHistory submits the warmed pool specs each shard owns straight to
// its Service, history times in turn, so every shard holds a full job
// history. Each submission must be a cache hit.
func (f *hotFleet) fillHistory(ctx context.Context, pool []string) error {
	owned := map[string][]service.JobSpec{}
	for _, body := range pool {
		var spec service.JobSpec
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return fmt.Errorf("decoding %s: %w", body, err)
		}
		shard := f.warm[body].shard
		owned[shard] = append(owned[shard], spec)
	}
	for i, svc := range f.svcs {
		specs := owned[shardName(i)]
		for k := 0; k < history && len(specs) > 0; k++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			v, err := svc.Submit(specs[k%len(specs)])
			if err != nil {
				return fmt.Errorf("filling %s: %w", shardName(i), err)
			}
			if !v.Cached {
				return fmt.Errorf("filling %s: job %s missed the cache", shardName(i), v.ID)
			}
		}
	}
	return nil
}

// reencode decodes JSON into generic values and encodes it again, which
// orders object keys: the coordinator serves results re-encoded this way,
// a shard serves them in struct field order.
func reencode(raw []byte) ([]byte, error) {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

func runHot(ctx context.Context, o options) (m *measured, err error) {
	replay := hotReplay(o.seed)
	pool := distinct(replay)
	var f *hotFleet
	defer func() {
		if f != nil {
			if cerr := f.close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}()
	var setups []time.Duration
	for range hotSetups {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, err
			}
			f = nil
		}
		t0 := time.Now()
		if f, err = openFleet(); err != nil {
			return nil, err
		}
		if err := f.warmUp(ctx, pool); err != nil {
			return nil, err
		}
		if err := f.fillHistory(ctx, pool); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}

	// The timed phase runs on one P. One client makes every hit a chain of
	// handoffs between goroutines, each waiting on the last; with a second
	// P each handoff may wake the host's other vCPU, and on a shared host
	// that wake-up, not the fleet's work, sets the latency and its drift.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	if m, err = f.phase(ctx, replay, o.seconds, tr); err != nil {
		return nil, err
	}
	m.setups = setups
	if tr == nil {
		return m, nil
	}
	split, err := f.split(ctx, replay)
	if err != nil {
		return nil, err
	}
	m.add(split)
	m.spans = tr
	m.setOverhead(median, false)
	forwarded := median(latencies(split.ops, func(o op) bool { return !o.direct }, false))
	direct := median(latencies(split.ops, func(o op) bool { return o.direct }, false))
	m.layers["fleet.direct_p50_ms"] = ms(direct)
	m.layers["fleet.forward_overhead_ms"] = ms(forwarded - direct)
	m.appends = f.hitAppends(pool[0])
	return m, nil
}

// registries are the shard registries, the coordinator's last.
func (f *hotFleet) registries() []*service.Registry {
	regs := make([]*service.Registry, 0, len(f.svcs)+1)
	for _, svc := range f.svcs {
		regs = append(regs, svc.Registry())
	}
	return append(regs, f.coord.Registry())
}

// countersAll sums the unlabelled samples over the registries.
func countersAll(regs []*service.Registry) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, reg := range regs {
		c, err := counters(reg)
		if err != nil {
			return nil, err
		}
		for k, v := range c {
			sum[k] += v
		}
	}
	return sum, nil
}

// phase replays the pool through the coordinator with a closed-loop client
// for budget; with a tracer it records a span for every second hit. Every
// answer must be a 200 cache hit carrying the result its spec returned
// during warm-up.
func (f *hotFleet) phase(ctx context.Context, replay []string, budget time.Duration, tr *tracer) (*measured, error) {
	before, err := countersAll(f.registries())
	if err != nil {
		return nil, err
	}
	start := time.Now()
	m, err := f.loop(ctx, replay, func(int) bool { return time.Since(start) < budget }, false, tr)
	if err != nil {
		return nil, err
	}
	m.wall = time.Since(start)
	after, err := countersAll(f.registries())
	if err != nil {
		return nil, err
	}
	d := delta(before, after)
	if misses := d("clusterd_cache_misses_total"); misses != 0 {
		m.fail("%v cache misses replaying a warmed pool", misses)
	}
	if tr != nil {
		m.layers = map[string]float64{
			"fleet.forward_errors": d("fleet_forward_errors_total"),
			"fleet.forward_shed":   d("fleet_forward_shed_total"),
		}
		serviceCounts(m.layers, d)
	}
	return m, nil
}

// split sends 2×directSample hits, alternately through the coordinator and
// straight to the spec's owning shard, so both halves see the same host
// conditions and their difference is the coordinator's share.
func (f *hotFleet) split(ctx context.Context, replay []string) (*measured, error) {
	return f.loop(ctx, replay, func(i int) bool { return i < 2*directSample }, true, nil)
}

// loop runs one closed-loop client until more reports false for the next
// request's index. With split, every second request goes straight to the
// spec's owning shard. One client keeps a hit from queueing behind
// another's on the same shard, whose odds hang on how the seed's pool
// falls across the shards: a hit's latency is the work of its own chain
// of HTTP hops.
func (f *hotFleet) loop(ctx context.Context, replay []string, more func(i int) bool, split bool, tr *tracer) (*measured, error) {
	m := &measured{}
	for i := 0; ctx.Err() == nil && more(i); i++ {
		body := replay[i%len(replay)]
		w := f.warm[body]
		direct := split && i%2 == 1
		url := f.front.URL
		if direct {
			url = f.url[w.shard]
		}
		m.attempted++
		t0 := time.Now()
		v, code, err := f.post(ctx, url, body)
		t1 := time.Now()
		switch {
		case ctx.Err() != nil:
			return nil, ctx.Err()
		case err != nil:
			m.fail("post: %v", err)
			continue
		case code != http.StatusOK || v.State != string(service.StateDone) || !v.Cached:
			m.fail("post answered HTTP %d, state %q, cached %t; want a 200 cache hit", code, v.State, v.Cached)
			continue
		case !sameResult(direct, v.Result, w):
			m.fail("hit %s: result differs from its warm-up result", v.ID)
			continue
		}
		traced := traceOp(tr, i)
		m.ops = append(m.ops, op{submit: t1.Sub(t0), e2e: t1.Sub(t0), traced: traced, direct: direct})
		if traced {
			tr.add(uint64(i+1), tr.id(), 0, "fleet.post", t0, t1, 0)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// sameResult reports whether a hit's result equals its warm-up result, byte
// for byte as served by the coordinator, or after re-encoding when the hit
// came straight from a shard.
func sameResult(fromShard bool, got []byte, w warmHit) bool {
	if !fromShard {
		return bytes.Equal(got, w.result)
	}
	canon, err := reencode(got)
	return err == nil && bytes.Equal(canon, w.canon)
}

// hitAppends is the journal append a cache hit on body makes on a durable
// shard: its submitted and done records in one call.
func (f *hotFleet) hitAppends(body string) [][]journal.Record {
	w := f.warm[body]
	now := time.Now()
	return [][]journal.Record{{
		{Type: journal.TypeSubmitted, JobID: "j000001", At: now, Spec: w.view.Spec, Key: w.view.Key},
		{Type: journal.TypeDone, JobID: "j000001", At: now, Cached: true, Result: w.result},
	}}
}

// serviceCounts fills the registry-delta metrics of the shards.
func serviceCounts(out map[string]float64, d func(string) float64) {
	hits, misses := d("clusterd_cache_hits_total"), d("clusterd_cache_misses_total")
	out["service.cache_hits"] = hits
	out["service.cache_misses"] = misses
	out["service.cache_hit_ratio"] = ratio(hits, hits+misses)
	out["service.shed"] = d("clusterd_shed_total")
	out["service.queue_rejected"] = d("clusterd_queue_rejected_total")
}

func closeService(svc *service.Service) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return svc.Close(ctx)
}

// counters reads every unlabelled sample of a metrics registry.
func counters(reg *service.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// delta returns a lookup of after−before for one sample name.
func delta(before, after map[string]float64) func(string) float64 {
	return func(name string) float64 { return after[name] - before[name] }
}
