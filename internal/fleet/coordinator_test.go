package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"clustereval/internal/service"
)

// testFleet spins up n real in-process shards (service.Server over
// httptest) behind a coordinator.
type testFleet struct {
	coord   *Coordinator
	servers map[string]*httptest.Server
	svcs    map[string]*service.Service
}

func newTestFleet(t *testing.T, n int) *testFleet {
	t.Helper()
	tf := &testFleet{servers: map[string]*httptest.Server{}, svcs: map[string]*service.Service{}}
	shards := make([]Shard, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%d", i)
		svc := service.New(service.Config{Workers: 2, QueueDepth: 64, ShardName: name})
		srv := httptest.NewServer(service.NewServer(svc))
		tf.svcs[name] = svc
		tf.servers[name] = srv
		shards = append(shards, Shard{Name: name, BaseURL: srv.URL})
	}
	coord, err := NewCoordinator(CoordinatorConfig{VirtualNodes: 32}, shards)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	tf.coord = coord
	t.Cleanup(func() {
		for _, srv := range tf.servers {
			srv.Close()
		}
		for _, svc := range tf.svcs {
			_ = svc.Close(context.Background())
		}
	})
	return tf
}

func (tf *testFleet) front(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(tf.coord)
	t.Cleanup(srv.Close)
	return srv
}

type fleetJobView struct {
	ID    string          `json:"id"`
	State string          `json:"state"`
	Shard string          `json:"shard"`
	Error string          `json:"error"`
	Spec  json.RawMessage `json:"spec"`
}

func postJob(t *testing.T, base, spec string) (fleetJobView, *http.Response) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var v fleetJobView
	body, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(body, &v)
	return v, resp
}

func getJob(t *testing.T, base, id string) (fleetJobView, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET /v1/jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	var v fleetJobView
	_ = json.NewDecoder(resp.Body).Decode(&v)
	return v, resp.StatusCode
}

// waitDone polls (bounded iterations, not wall-clock deadlines) until the
// job is terminal.
func waitDone(t *testing.T, base, id string) fleetJobView {
	t.Helper()
	for i := 0; i < 500; i++ {
		v, code := getJob(t, base, id)
		if code == http.StatusOK {
			switch v.State {
			case "done", "failed", "cancelled":
				return v
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return fleetJobView{}
}

func netSpec(i int) string {
	return fmt.Sprintf(`{"kind":"net","size_bytes":%d,"iters":5,"dst_node":%d}`, 1024+i*256, 1+i%30)
}

func TestCoordinatorRoutesByCanonicalKey(t *testing.T) {
	tf := newTestFleet(t, 3)
	front := tf.front(t)

	seenShards := map[string]int{}
	ids := []string{}
	for i := 0; i < 30; i++ {
		v, resp := postJob(t, front.URL, netSpec(i))
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("job %d: HTTP %d", i, resp.StatusCode)
		}
		shard, _, ok := splitFleetID(v.ID)
		if !ok {
			t.Fatalf("job %d: id %q is not a fleet id", i, v.ID)
		}
		if v.Shard != shard {
			t.Fatalf("job %d: shard field %q disagrees with id %q", i, v.Shard, v.ID)
		}
		seenShards[shard]++
		ids = append(ids, v.ID)
	}
	if len(seenShards) < 2 {
		t.Fatalf("30 distinct specs all landed on %v; consistent hashing is not spreading", seenShards)
	}
	for _, id := range ids {
		if v := waitDone(t, front.URL, id); v.State != "done" {
			t.Fatalf("job %s ended %q (%s)", id, v.State, v.Error)
		}
	}
}

// The same canonical spec must route to the same shard every time, so
// the second submission is a cache hit (HTTP 200, not 202).
func TestCoordinatorCacheAffinity(t *testing.T) {
	tf := newTestFleet(t, 3)
	front := tf.front(t)
	spec := `{"kind":"net","size_bytes":32768,"iters":5,"dst_node":3}`

	v1, resp1 := postJob(t, front.URL, spec)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission: HTTP %d, want 202", resp1.StatusCode)
	}
	waitDone(t, front.URL, v1.ID)

	v2, resp2 := postJob(t, front.URL, spec)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second submission: HTTP %d, want 200 (cache hit)", resp2.StatusCode)
	}
	s1, _, _ := splitFleetID(v1.ID)
	s2, _, _ := splitFleetID(v2.ID)
	if s1 != s2 {
		t.Fatalf("same spec routed to %s then %s; cache affinity broken", s1, s2)
	}
}

func TestCoordinatorRejectsInvalidSpecLocally(t *testing.T) {
	tf := newTestFleet(t, 2)
	front := tf.front(t)
	_, resp := postJob(t, front.URL, `{"kind":"no-such-kind"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: HTTP %d, want 400", resp.StatusCode)
	}
	// The 400 must come from the coordinator, not a proxy hop.
	if got := tf.coord.forwarded.Value(); got != 0 {
		t.Fatalf("invalid spec was forwarded %d time(s)", got)
	}
}

// hugeSpec is a JSON body of size bytes whose first string never closes,
// so a decoder must read all of it to finish one value. read counts the
// bytes taken from it.
type hugeSpec struct{ read, size int }

func (b *hugeSpec) Read(p []byte) (int, error) {
	const head = `{"kind":"`
	n := min(len(p), b.size-b.read)
	if n == 0 {
		return 0, io.EOF
	}
	for i := range p[:n] {
		if at := b.read + i; at < len(head) {
			p[i] = head[at]
		} else {
			p[i] = 'a'
		}
	}
	b.read += n
	return n, nil
}

// TestCoordinatorCapsSpecBody submits a 64 MiB spec to the coordinator,
// which must answer 413 having read at most service.MaxSpecBytes of it,
// plus one 512-byte read of the JSON decoder's buffer, and forward
// nothing.
func TestCoordinatorCapsSpecBody(t *testing.T) {
	tf := newTestFleet(t, 2)
	body := &hugeSpec{size: 64 << 20}
	rec := httptest.NewRecorder()
	tf.coord.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("a 64 MiB spec answered %d, want 413:\n%s", rec.Code, rec.Body.String())
	}
	if body.read > service.MaxSpecBytes+512 {
		t.Errorf("read %d bytes of a 64 MiB spec, cap %d", body.read, service.MaxSpecBytes)
	}
	if got := tf.coord.forwarded.Value(); got != 0 {
		t.Errorf("an oversized spec was forwarded %d time(s)", got)
	}
}

func TestCoordinatorMergedListing(t *testing.T) {
	tf := newTestFleet(t, 3)
	front := tf.front(t)
	want := map[string]bool{}
	for i := 0; i < 12; i++ {
		v, _ := postJob(t, front.URL, netSpec(i))
		want[v.ID] = true
		waitDone(t, front.URL, v.ID)
	}
	resp, err := http.Get(front.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Jobs []fleetJobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, j := range body.Jobs {
		got[j.ID] = true
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("merged listing is missing job %s (got %d jobs)", id, len(body.Jobs))
		}
	}
}

// A shard that dies at the transport layer must be marked down and its
// key range served by a ring successor on the very next attempt.
func TestCoordinatorFailsOverOnTransportError(t *testing.T) {
	tf := newTestFleet(t, 3)
	front := tf.front(t)

	// Find a spec whose key the ring places on s1, then kill s1's
	// listener outright.
	victim := "s1"
	var spec string
	for i := 0; ; i++ {
		candidate := fmt.Sprintf(`{"kind":"net","size_bytes":%d,"iters":5,"dst_node":7}`, 1024+i*64)
		key := canonicalKeyForTest(t, candidate)
		if owner, _ := tf.coord.ring.Lookup(key); owner == victim {
			spec = candidate
			break
		}
	}

	tf.servers[victim].Close()
	v, resp := postJob(t, front.URL, spec)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submission with %s down: HTTP %d", victim, resp.StatusCode)
	}
	shard, _, _ := splitFleetID(v.ID)
	if shard == victim {
		t.Fatalf("job landed on dead shard %s", victim)
	}
	if tf.coord.forwardErrors.Value() == 0 {
		t.Fatal("transport failure was not counted")
	}
	if live := tf.coord.ring.Shards()[victim]; live {
		t.Fatalf("shard %s still marked live after a transport failure", victim)
	}
	if done := waitDone(t, front.URL, v.ID); done.State != "done" {
		t.Fatalf("failed-over job ended %q (%s)", done.State, done.Error)
	}
}

// canonicalKeyForTest derives the cache key the coordinator will route
// on, via the same registry path.
func canonicalKeyForTest(t *testing.T, specJSON string) string {
	t.Helper()
	var spec service.JobSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		t.Fatalf("bad test spec: %v", err)
	}
	_, key, err := service.Canonicalize(spec)
	if err != nil {
		t.Fatalf("canonicalize: %v", err)
	}
	return key
}

// The coordinator must relay the owning shard's 429 verbatim — same
// Retry-After, no synthesis — and count it on fleet_forward_shed_total.
func TestCoordinatorRelaysShedVerdict(t *testing.T) {
	shed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintln(w, `{"error":"service: shedding load: queue saturation 0.95 >= 0.90"}`)
	}))
	defer shed.Close()

	coord, err := NewCoordinator(CoordinatorConfig{}, []Shard{{Name: "s0", BaseURL: shed.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord)
	defer front.Close()

	resp, err := http.Post(front.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"net","size_bytes":4096,"iters":5,"dst_node":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429 relayed", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After %q, want the shard's own %q relayed", ra, "7")
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "shedding load") {
		t.Fatalf("shard's shed reason was not relayed: %s", body)
	}
	if got := coord.forwardShed.Value(); got != 1 {
		t.Fatalf("fleet_forward_shed_total = %d, want 1", got)
	}
}

// GETs against a down (but not dead) shard answer 503 + Retry-After:
// the job is journaled and will come back, so 404 would be a lie.
func TestCoordinatorJobGetWhileShardDown(t *testing.T) {
	tf := newTestFleet(t, 2)
	front := tf.front(t)
	v, _ := postJob(t, front.URL, netSpec(1))
	waitDone(t, front.URL, v.ID)

	shard, _, _ := splitFleetID(v.ID)
	tf.coord.SetShardLive(shard, false)
	resp, err := http.Get(front.URL + "/v1/jobs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP %d, want 503 while shard down", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	tf.coord.SetShardLive(shard, true)
	if got, code := getJob(t, front.URL, v.ID); code != http.StatusOK || got.State != "done" {
		t.Fatalf("after revival: HTTP %d state %q", code, got.State)
	}
}

func TestCoordinatorProbeRevivesShard(t *testing.T) {
	tf := newTestFleet(t, 2)
	tf.coord.SetShardLive("s0", false)
	tf.coord.ProbeOnce(context.Background())
	if !tf.coord.ring.Shards()["s0"] {
		t.Fatal("probe did not revive a healthy shard")
	}
}

func TestCoordinatorFleetEndpoint(t *testing.T) {
	tf := newTestFleet(t, 3)
	front := tf.front(t)
	resp, err := http.Get(front.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Shards []struct {
			Name string `json:"name"`
			Live bool   `json:"live"`
		} `json:"shards"`
		VirtualNodes int `json:"virtual_nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Shards) != 3 || body.VirtualNodes != 32 {
		t.Fatalf("fleet topology = %+v", body)
	}
	for _, s := range body.Shards {
		if !s.Live {
			t.Fatalf("shard %s reported not live", s.Name)
		}
	}
}
