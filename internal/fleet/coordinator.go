package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"clustereval/internal/experiment"
	"clustereval/internal/service"
)

// Shard declares one clusterd the coordinator routes to. BaseURL may be
// empty at construction (a supervised shard learns its ephemeral port
// only once the child prints its banner) and set later via SetShardURL.
type Shard struct {
	// Name is the shard's stable identity ("s0"); it prefixes fleet job
	// IDs and survives restarts, so it must match ^[a-z0-9]+$.
	Name string
	// BaseURL is "http://host:port" of the shard's clusterd.
	BaseURL string
	// JournalPath, when non-empty, locates the shard's write-ahead
	// journal for handoff after permanent death.
	JournalPath string
	// DataDir, when non-empty, is the shard's on-disk home. With
	// replication enabled the child also keeps the replica journals it
	// follows for other shards here (replica-<src>.wal), which is where
	// promotion looks after a disk loss.
	DataDir string
}

var shardNameRe = regexp.MustCompile(`^[a-z0-9]+$`)

// shardState tracks one shard's routing view.
type shardState struct {
	mu      sync.Mutex
	decl    Shard
	live    bool
	dead    bool // permanently failed; never routable again
	pid     int  // supervised child PID, 0 when unknown
	baseURL string
}

func (s *shardState) url() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.baseURL
}

// route records where a fleet job ID actually lives — normally the shard
// its name encodes, but handoff moves crash victims of a dead shard onto
// survivors without changing their public ID.
type route struct {
	shard   string
	localID string
}

// CoordinatorConfig sizes the coordinator.
type CoordinatorConfig struct {
	// VirtualNodes per shard on the hash ring; 0 means 64.
	VirtualNodes int
	// ForwardTimeout bounds one proxied request; 0 means 30s. Submissions
	// answer fast (202/200 on enqueue or cache hit), so this is a
	// transport bound, not a job-duration bound.
	ForwardTimeout time.Duration
	// ProbeInterval paces the background health poll Run drives; 0 means
	// 250ms.
	ProbeInterval time.Duration
	// Replicas is how many copies of each shard's journal the fleet
	// keeps: the primary plus Replicas-1 ring-successor followers.
	// 0 or 1 disables replication entirely (the seed behavior).
	Replicas int
	// AckQuorum is how many of those copies must fsync before a submit
	// is acknowledged; 0 means a majority (Replicas/2 + 1). Must satisfy
	// 1 <= AckQuorum <= Replicas.
	AckQuorum int
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = 64
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 30 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.AckQuorum <= 0 {
		c.AckQuorum = c.Replicas/2 + 1
	}
	return c
}

// Coordinator fronts a fleet of clusterd shards: it owns the hash ring,
// proxies the job API, merges observability, and re-enqueues a dead
// shard's journal. It is an http.Handler serving the same /v1 surface as
// a single clusterd, plus /v1/fleet for topology.
type Coordinator struct {
	cfg    CoordinatorConfig
	ring   *Ring
	client *http.Client
	mux    *http.ServeMux
	start  time.Time

	mu     sync.Mutex
	shards map[string]*shardState
	// routes redirects handed-off fleet IDs to their new owner. Every
	// other ID names its shard in its own prefix, so it needs no entry.
	routes map[string]route

	reg            *service.Registry
	forwarded      *service.Counter
	forwardShed    *service.Counter
	forwardErrors  *service.Counter
	rerouted       *service.Counter
	handoffErrors  *service.Counter
	promotions     *service.Counter
	promotedRecs   *service.Counter
	replSyncErrors *service.Counter
	restarts       *service.Counter
	shardUp        *service.GaugeVec
	shardRestarts  *service.GaugeVec
	submitLatency  *service.HistogramVec
	mergeScrapeErr *service.Counter
}

// NewCoordinator builds a coordinator over the declared shards. Shards
// are added to the ring immediately; ones with an empty BaseURL start
// out not-live and become routable via SetShardURL/SetShardLive.
func NewCoordinator(cfg CoordinatorConfig, shards []Shard) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(shards) == 0 {
		return nil, errors.New("fleet: no shards declared")
	}
	if cfg.AckQuorum > cfg.Replicas {
		return nil, fmt.Errorf("fleet: ack quorum %d exceeds replicas %d", cfg.AckQuorum, cfg.Replicas)
	}
	if cfg.Replicas > len(shards) {
		return nil, fmt.Errorf("fleet: %d replicas need %d shards, got %d", cfg.Replicas, cfg.Replicas, len(shards))
	}
	c := &Coordinator{
		cfg:    cfg,
		ring:   NewRing(cfg.VirtualNodes),
		client: &http.Client{Timeout: cfg.ForwardTimeout},
		mux:    http.NewServeMux(),
		start:  hostNow(),
		shards: map[string]*shardState{},
		routes: map[string]route{},
		reg:    service.NewRegistry(),
	}
	for _, sh := range shards {
		if !shardNameRe.MatchString(sh.Name) {
			return nil, fmt.Errorf("fleet: invalid shard name %q (want ^[a-z0-9]+$)", sh.Name)
		}
		if _, dup := c.shards[sh.Name]; dup {
			return nil, fmt.Errorf("fleet: duplicate shard name %q", sh.Name)
		}
		if cfg.Replicas > 1 && (sh.DataDir == "" || sh.JournalPath == "") {
			return nil, fmt.Errorf("fleet: replication needs shard %s to declare DataDir and JournalPath", sh.Name)
		}
		st := &shardState{decl: sh, baseURL: sh.BaseURL, live: sh.BaseURL != ""}
		c.shards[sh.Name] = st
		c.ring.Add(sh.Name)
		c.ring.SetLive(sh.Name, st.live)
	}

	c.forwarded = c.reg.Counter("fleet_forwarded_total", "Job submissions proxied to an owning shard (any outcome).")
	c.forwardShed = c.reg.Counter("fleet_forward_shed_total", "Submissions the owning shard shed with 429; the shard's Retry-After is relayed verbatim.")
	c.forwardErrors = c.reg.Counter("fleet_forward_errors_total", "Proxied requests that failed at the transport layer (shard unreachable mid-request).")
	c.rerouted = c.reg.Counter("fleet_rerouted_jobs_total", "Unfinished jobs re-enqueued onto surviving shards from a dead shard's journal.")
	c.handoffErrors = c.reg.Counter("fleet_handoff_errors_total", "Jobs a journal handoff could not re-enqueue (no live shard, resubmission rejected).")
	c.promotions = c.reg.Counter("fleet_promotions_total", "Replica journals promoted to primary after a shard lost its disk.")
	c.promotedRecs = c.reg.Counter("fleet_promoted_records_total", "Journal records recovered into promoted journals.")
	c.replSyncErrors = c.reg.Counter("fleet_replication_sync_errors_total", "Failed attempts to push a shard's follower set (shard unreachable or rejected the peer set).")
	c.restarts = c.reg.Counter("fleet_shard_restarts_total", "Shard child processes respawned by the supervisor.")
	c.mergeScrapeErr = c.reg.Counter("fleet_scrape_errors_total", "Per-shard /metrics or /healthz fetches that failed during a fleet merge.")
	c.shardUp = c.reg.GaugeVec("fleet_shard_up", "Per-shard routability: 1 live, 0 down or dead.", "shard")
	c.shardRestarts = c.reg.GaugeVec("fleet_shard_restart_count", "Supervisor restarts consumed per shard.", "shard")
	c.reg.GaugeFunc("fleet_live_shards", "Shards currently routable.", func() float64 {
		n := 0
		for _, live := range c.ring.Shards() {
			if live {
				n++
			}
		}
		return float64(n)
	})
	c.reg.GaugeFunc("fleet_known_shards", "Shards on the ring (live or down, excluding permanently dead).", func() float64 {
		return float64(len(c.ring.Shards()))
	})
	c.submitLatency = c.reg.HistogramVec("fleet_forward_latency_seconds",
		"Coordinator-observed latency of proxied submissions by outcome (accepted, cached, shed, rejected, error).", "outcome",
		[]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5})
	for _, sh := range shards {
		c.shardUp.Set(sh.Name, boolGauge(c.shards[sh.Name].live))
		c.shardRestarts.Set(sh.Name, 0)
	}

	c.mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	c.mux.HandleFunc("GET /v1/jobs", c.handleList)
	c.mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob)
	c.mux.HandleFunc("DELETE /v1/jobs/{id}", c.handleJob)
	c.mux.HandleFunc("GET /v1/healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /v1/metrics", c.handleMetrics)
	c.mux.HandleFunc("GET /v1/kinds", c.handlePassthrough)
	c.mux.HandleFunc("GET /v1/machines", c.handlePassthrough)
	c.mux.HandleFunc("GET /v1/fleet", c.handleFleet)
	return c, nil
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// Registry exposes the coordinator's own metrics registry.
func (c *Coordinator) Registry() *service.Registry { return c.reg }

// shard returns the state for name, nil when unknown.
func (c *Coordinator) shard(name string) *shardState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shards[name]
}

// SetShardURL (re)binds a shard's base URL — supervised shards call this
// each time a child announces its listen address.
func (c *Coordinator) SetShardURL(name, baseURL string) {
	if st := c.shard(name); st != nil {
		st.mu.Lock()
		st.baseURL = baseURL
		st.mu.Unlock()
	}
}

// SetShardPID records the supervised child's PID for /v1/fleet.
func (c *Coordinator) SetShardPID(name string, pid int) {
	if st := c.shard(name); st != nil {
		st.mu.Lock()
		st.pid = pid
		st.mu.Unlock()
	}
}

// SetShardLive flips a shard's routability. While down, its key range
// flows to ring successors; reviving flows it back.
func (c *Coordinator) SetShardLive(name string, live bool) {
	st := c.shard(name)
	if st == nil {
		return
	}
	st.mu.Lock()
	if st.dead {
		st.mu.Unlock()
		return
	}
	st.live = live
	st.mu.Unlock()
	c.ring.SetLive(name, live)
	c.shardUp.Set(name, boolGauge(live))
}

// NoteRestart counts one supervisor respawn of the named shard.
func (c *Coordinator) NoteRestart(name string, count int) {
	c.restarts.Inc()
	c.shardRestarts.Set(name, float64(count))
}

// liveShards returns the currently routable shard states, sorted by name.
func (c *Coordinator) liveShards() []*shardState {
	c.mu.Lock()
	names := make([]string, 0, len(c.shards))
	for n := range c.shards {
		names = append(names, n)
	}
	c.mu.Unlock()
	sort.Strings(names)
	var out []*shardState
	for _, n := range names {
		st := c.shard(n)
		st.mu.Lock()
		ok := st.live && !st.dead && st.baseURL != ""
		st.mu.Unlock()
		if ok {
			out = append(out, st)
		}
	}
	return out
}

// allShards returns every shard state, sorted by name.
func (c *Coordinator) allShards() []*shardState {
	c.mu.Lock()
	names := make([]string, 0, len(c.shards))
	for n := range c.shards {
		names = append(names, n)
	}
	c.mu.Unlock()
	sort.Strings(names)
	out := make([]*shardState, 0, len(names))
	for _, n := range names {
		out = append(out, c.shard(n))
	}
	return out
}

func writeError(w http.ResponseWriter, code int, msg string) {
	service.WriteJSON(w, code, map[string]string{"error": msg})
}

// replyBufs pools the buffers shard replies are read into.
var replyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readReply reads at most limit bytes of a shard's reply into a pooled
// buffer. The caller hands it back with releaseReply once nothing refers
// to its bytes, on the error path too.
func readReply(body io.Reader, limit int64) (*bytes.Buffer, error) {
	buf := replyBufs.Get().(*bytes.Buffer)
	_, err := buf.ReadFrom(io.LimitReader(body, limit))
	return buf, err
}

func releaseReply(buf *bytes.Buffer) {
	if buf.Cap() <= service.MaxPooledBuffer {
		buf.Reset()
		replyBufs.Put(buf)
	}
}

// handleSubmit canonicalizes the spec locally (the same registry code the
// shard runs, so a 400, or a 413 for a body over service.MaxSpecBytes,
// never costs a proxy hop), looks the cache key up
// on the ring and forwards the normalized spec to the owning shard. A
// shard that fails at the transport layer is marked down and the next
// ring successor tried, so a mid-request crash degrades to a retry
// instead of an error. Shard verdicts are relayed faithfully — in
// particular a 429 keeps the shard's own Retry-After header.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	began := hostNow()
	var spec experiment.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, service.MaxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, service.DecodeStatus(err), "invalid job spec: "+err.Error())
		return
	}
	norm, key, err := experiment.Canonicalize(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	body, err := json.Marshal(norm)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "re-encoding spec: "+err.Error())
		return
	}

	// Walk the ring until a live shard answers; each transport failure
	// marks that shard down, so the next Lookup lands on its successor.
	tried := map[string]bool{}
	for {
		name, ok := c.ring.Lookup(key)
		if !ok || tried[name] {
			c.observeSubmit(began, "rejected")
			writeError(w, http.StatusServiceUnavailable, "fleet: no live shard owns this key range")
			return
		}
		tried[name] = true
		st := c.shard(name)
		if st == nil {
			continue
		}
		resp, err := c.forward(r.Context(), st, http.MethodPost, "/v1/jobs", body)
		if err != nil {
			c.forwardErrors.Inc()
			c.SetShardLive(name, false)
			continue
		}
		c.forwarded.Inc()
		c.relaySubmit(w, resp, name, began)
		return
	}
}

// relaySubmit rewrites the shard's answer for the fleet surface: job IDs
// gain the shard prefix, shed verdicts keep the shard's Retry-After.
func (c *Coordinator) relaySubmit(w http.ResponseWriter, resp *http.Response, shardName string, began time.Time) {
	defer resp.Body.Close()
	buf, err := readReply(resp.Body, 8<<20)
	defer releaseReply(buf)
	if err != nil {
		c.observeSubmit(began, "error")
		writeError(w, http.StatusBadGateway, "fleet: reading shard response: "+err.Error())
		return
	}
	payload := buf.Bytes()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
		outcome := "accepted"
		if resp.StatusCode == http.StatusOK {
			outcome = "cached"
		}
		if err := relayView(w, resp.StatusCode, payload, shardName, ""); err != nil {
			outcome = "error"
			writeError(w, http.StatusBadGateway, "fleet: undecodable shard response: "+err.Error())
		}
		c.observeSubmit(began, outcome)
	case http.StatusTooManyRequests:
		// The owning shard shed the submission. Relay its verdict — and
		// crucially its Retry-After, which encodes the shard's own backoff
		// judgement (queue pressure or breaker cooldown) — rather than
		// synthesizing one here.
		c.forwardShed.Inc()
		c.observeSubmit(began, "shed")
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			w.Header().Set("Retry-After", ra)
		}
		copyJSON(w, resp.StatusCode, payload)
	default:
		c.observeSubmit(began, "rejected")
		copyJSON(w, resp.StatusCode, payload)
	}
}

func (c *Coordinator) observeSubmit(began time.Time, outcome string) {
	c.submitLatency.With(outcome).Observe(hostSince(began).Seconds())
}

// copyJSON relays a shard's JSON payload with its original status code.
func copyJSON(w http.ResponseWriter, code int, payload []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(payload)
}

// fleetID prefixes a shard-local job ID with its shard name.
func fleetID(shard, localID string) string { return shard + "-" + localID }

// splitFleetID parses "s0-j000042" into its shard and local halves.
func splitFleetID(id string) (shard, localID string, ok bool) {
	shard, localID, found := strings.Cut(id, "-")
	if !found || shard == "" || localID == "" {
		return "", "", false
	}
	return shard, localID, true
}

// stringMember returns the view's member name when it is a JSON string,
// "" otherwise.
func stringMember(view map[string]json.RawMessage, name string) string {
	var s string
	if json.Unmarshal(view[name], &s) != nil {
		return ""
	}
	return s
}

// forward issues one proxied request to a shard.
func (c *Coordinator) forward(ctx context.Context, st *shardState, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, st.url()+path, rd)
	if err != nil {
		return nil, fmt.Errorf("fleet: building %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.client.Do(req)
}

// resolve finds where a fleet job ID lives: the route table first (it
// tracks handoffs), falling back to the ID's own shard prefix for every
// other job, including those submitted before this coordinator process
// started (fleet restarts keep IDs resolvable because shards recover
// their own journals).
func (c *Coordinator) resolve(id string) (route, bool) {
	c.mu.Lock()
	rt, ok := c.routes[id]
	c.mu.Unlock()
	if ok {
		return rt, true
	}
	shard, localID, ok := splitFleetID(id)
	if !ok {
		return route{}, false
	}
	if c.shard(shard) == nil {
		return route{}, false
	}
	return route{shard: shard, localID: localID}, true
}

// handleJob proxies GET/DELETE of one job to the shard that owns it.
func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt, ok := c.resolve(id)
	if !ok {
		writeError(w, http.StatusNotFound, "fleet: no such job "+id)
		return
	}
	st := c.shard(rt.shard)
	st.mu.Lock()
	ready := st.live && st.baseURL != ""
	dead := st.dead
	st.mu.Unlock()
	if dead {
		// The shard is gone for good and this job was not handed off
		// (handoff rewrites the route table), so it finished before the
		// death and its result died with the shard. The simulation is
		// deterministic: resubmitting the spec recomputes it elsewhere.
		writeError(w, http.StatusGone,
			fmt.Sprintf("fleet: shard %s is dead; job %s finished before the failure and its result was lost — resubmit the spec to recompute", rt.shard, id))
		return
	}
	if !ready {
		// The owning shard is down (likely restarting under the
		// supervisor). The job is not lost — its journal will replay — so
		// answer "come back shortly" rather than 404.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("fleet: shard %s is down (restarting); job %s will be recovered", rt.shard, id))
		return
	}
	resp, err := c.forward(r.Context(), st, r.Method, "/v1/jobs/"+rt.localID, nil)
	if err != nil {
		c.forwardErrors.Inc()
		c.SetShardLive(rt.shard, false)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "fleet: shard "+rt.shard+" unreachable: "+err.Error())
		return
	}
	defer resp.Body.Close()
	buf, err := readReply(resp.Body, 8<<20)
	defer releaseReply(buf)
	if err != nil {
		writeError(w, http.StatusBadGateway, "fleet: reading shard response: "+err.Error())
		return
	}
	payload := buf.Bytes()
	// Handed-off jobs keep their original public ID. A view that does not
	// splice is relayed as it came.
	if resp.StatusCode != http.StatusOK || relayView(w, http.StatusOK, payload, rt.shard, id) != nil {
		copyJSON(w, resp.StatusCode, payload)
	}
}

// handleList merges every live shard's job listing, IDs rewritten onto
// the fleet namespace, ordered by shard then the shard's own submission
// order.
func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	var merged []map[string]json.RawMessage
	downShards := []string{}
	for _, st := range c.allShards() {
		st.mu.Lock()
		name := st.decl.Name
		ready := st.live && !st.dead && st.baseURL != ""
		st.mu.Unlock()
		if !ready {
			downShards = append(downShards, name)
			continue
		}
		resp, err := c.forward(r.Context(), st, http.MethodGet, "/v1/jobs", nil)
		if err != nil {
			c.forwardErrors.Inc()
			downShards = append(downShards, name)
			continue
		}
		var body struct {
			Jobs []map[string]json.RawMessage `json:"jobs"`
		}
		err = json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&body)
		resp.Body.Close()
		if err != nil {
			downShards = append(downShards, name)
			continue
		}
		for _, v := range body.Jobs {
			if localID := stringMember(v, "id"); localID != "" {
				v["id"] = appendQuoted(nil, fleetID(name, localID))
				v["shard"] = appendQuoted(nil, name)
			}
			merged = append(merged, v)
		}
	}
	service.WriteJSON(w, http.StatusOK, map[string]any{
		"jobs":         merged,
		"shards_down":  downShards,
		"shards_total": len(c.allShards()),
	})
}

// handlePassthrough forwards registry-shaped reads (/v1/kinds,
// /v1/machines) to the first live shard — every shard runs the same
// binary, so any one's answer is the fleet's.
func (c *Coordinator) handlePassthrough(w http.ResponseWriter, r *http.Request) {
	for _, st := range c.liveShards() {
		resp, err := c.forward(r.Context(), st, http.MethodGet, r.URL.Path, nil)
		if err != nil {
			c.forwardErrors.Inc()
			continue
		}
		defer resp.Body.Close()
		payload, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		if err != nil {
			continue
		}
		copyJSON(w, resp.StatusCode, payload)
		return
	}
	writeError(w, http.StatusServiceUnavailable, "fleet: no live shard")
}

// handleFleet reports the fleet topology: per-shard liveness, URLs,
// PIDs, restart counts and the route-table size.
func (c *Coordinator) handleFleet(w http.ResponseWriter, _ *http.Request) {
	type shardInfo struct {
		Name      string   `json:"name"`
		BaseURL   string   `json:"base_url,omitempty"`
		Live      bool     `json:"live"`
		Dead      bool     `json:"dead,omitempty"`
		PID       int      `json:"pid,omitempty"`
		Journal   string   `json:"journal,omitempty"`
		Followers []string `json:"followers,omitempty"`
	}
	out := []shardInfo{}
	for _, st := range c.allShards() {
		st.mu.Lock()
		info := shardInfo{
			Name: st.decl.Name, BaseURL: st.baseURL, Live: st.live,
			Dead: st.dead, PID: st.pid, Journal: st.decl.JournalPath,
		}
		st.mu.Unlock()
		if c.ReplicationEnabled() {
			info.Followers = c.Followers(info.Name)
		}
		out = append(out, info)
	}
	c.mu.Lock()
	routes := len(c.routes)
	c.mu.Unlock()
	service.WriteJSON(w, http.StatusOK, map[string]any{
		"shards":           out,
		"virtual_nodes":    c.cfg.VirtualNodes,
		"replicas":         c.cfg.Replicas,
		"ack_quorum":       c.cfg.AckQuorum,
		"routes":           routes,
		"rerouted_total":   c.rerouted.Value(),
		"promotions_total": c.promotions.Value(),
	})
}

// Run drives the background health poll until ctx is cancelled: every
// ProbeInterval each non-dead shard's /v1/healthz is probed and its
// routability updated, so shards that crash between requests are caught
// quickly and restarted ones rejoin the ring without supervisor help.
func (c *Coordinator) Run(ctx context.Context) error {
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		c.ProbeOnce(ctx)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-sleepCh(c.cfg.ProbeInterval):
		}
	}
}

// sleepCh adapts the injected sleep to a select-able channel.
func sleepCh(d time.Duration) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		hostSleep(d)
		close(ch)
	}()
	return ch
}

// ProbeOnce health-checks every non-dead shard once and updates
// liveness.
func (c *Coordinator) ProbeOnce(ctx context.Context) {
	for _, st := range c.allShards() {
		st.mu.Lock()
		name := st.decl.Name
		dead := st.dead
		url := st.baseURL
		st.mu.Unlock()
		if dead || url == "" {
			continue
		}
		probeCtx, cancel := context.WithTimeout(ctx, c.cfg.ForwardTimeout)
		resp, err := c.forward(probeCtx, st, http.MethodGet, "/v1/healthz", nil)
		if err == nil {
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
		}
		cancel()
		c.SetShardLive(name, err == nil && resp.StatusCode == http.StatusOK)
	}
}

// FailShard declares a shard permanently dead: it leaves the ring for
// good and, when a journal path is declared, every unfinished job in that
// journal is re-enqueued onto the surviving shards with the route table
// rewritten so the jobs' public fleet IDs keep resolving. Returns the
// number of jobs rerouted. Calling it twice is a no-op.
func (c *Coordinator) FailShard(ctx context.Context, name string) (int, error) {
	st := c.shard(name)
	if st == nil {
		return 0, fmt.Errorf("fleet: unknown shard %q", name)
	}
	st.mu.Lock()
	if st.dead {
		st.mu.Unlock()
		return 0, nil
	}
	st.dead = true
	st.live = false
	journalPath := st.decl.JournalPath
	st.mu.Unlock()
	c.ring.Remove(name)
	c.shardUp.Set(name, 0)

	if journalPath == "" {
		return 0, nil
	}
	unfinished, err := UnfinishedJobs(journalPath)
	if err != nil {
		return 0, fmt.Errorf("fleet: reading dead shard %s journal: %w", name, err)
	}
	moved := 0
	for _, u := range unfinished {
		if err := c.reenqueue(ctx, name, u); err != nil {
			c.handoffErrors.Inc()
			continue
		}
		moved++
	}
	return moved, nil
}

// reenqueue resubmits one orphaned job to the ring's current owner and
// points the old fleet ID at its new home.
func (c *Coordinator) reenqueue(ctx context.Context, deadShard string, u Unfinished) error {
	tried := map[string]bool{}
	for {
		owner, ok := c.ring.Lookup(u.Key)
		if !ok || tried[owner] {
			return fmt.Errorf("fleet: no live shard to re-enqueue job %s", u.ID)
		}
		tried[owner] = true
		st := c.shard(owner)
		if st == nil {
			continue
		}
		resp, err := c.forward(ctx, st, http.MethodPost, "/v1/jobs", u.Spec)
		if err != nil {
			c.forwardErrors.Inc()
			c.SetShardLive(owner, false)
			continue
		}
		payload, rerr := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		resp.Body.Close()
		if rerr != nil {
			return fmt.Errorf("fleet: reading re-enqueue response: %w", rerr)
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("fleet: shard %s refused re-enqueued job %s: HTTP %d", owner, u.ID, resp.StatusCode)
		}
		local, err := localID(payload)
		if err != nil {
			return err
		}
		c.mu.Lock()
		c.routes[fleetID(deadShard, u.ID)] = route{shard: owner, localID: local}
		c.mu.Unlock()
		c.rerouted.Inc()
		return nil
	}
}

// Uptime reports how long the coordinator has been up.
func (c *Coordinator) Uptime() time.Duration { return hostSince(c.start) }
