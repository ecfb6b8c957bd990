package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"clustereval/internal/figures"
	"clustereval/internal/machine"
	"clustereval/internal/toolchain"
)

// newTestServer spins up a service (with the real runner unless overridden)
// behind an httptest server.
func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Service) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	})
	return ts, svc
}

func postJob(t *testing.T, ts *httptest.Server, spec any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decoding: %v", path, err)
		}
	}
	return resp
}

// pollDone polls GET /v1/jobs/{id} until the job is terminal.
func pollDone(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var v JobView
		resp := getJSON(t, ts, "/v1/jobs/"+id, &v)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job %s: %d", id, resp.StatusCode)
		}
		if v.State.Terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobView{}
}

// TestEndToEndStreamMatchesFigures is the acceptance check: a STREAM job on
// CTE-Arm submitted over HTTP must report exactly the bandwidth the CLI
// figure pipeline computes, and resubmitting the identical spec must be a
// cache hit visible in /v1/metrics.
func TestEndToEndStreamMatchesFigures(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 2})

	resp, body := postJob(t, ts, JobSpec{Kind: "stream", Machine: "cte-arm"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d, want 202: %s", resp.StatusCode, body)
	}
	var queued JobView
	if err := json.Unmarshal(body, &queued); err != nil {
		t.Fatal(err)
	}
	if queued.State != StateQueued {
		t.Fatalf("fresh job state = %s, want queued", queued.State)
	}

	done := pollDone(t, ts, queued.ID)
	if done.State != StateDone {
		t.Fatalf("job failed: %s (%s)", done.State, done.Error)
	}
	if done.Result == nil || done.Result.Stream == nil {
		t.Fatal("done job carries no stream result")
	}

	// The service must agree bit-for-bit with the figure pipeline the CLI
	// uses (same build config, element count and noise seeds).
	want, err := figures.Default().StreamSeriesOn(machine.CTEArm(), toolchain.C)
	if err != nil {
		t.Fatal(err)
	}
	got := done.Result.Stream
	if got.BestThreads != want.Best.Threads {
		t.Errorf("best threads = %d, CLI pipeline says %d", got.BestThreads, want.Best.Threads)
	}
	if math.Abs(got.BestGBps-want.Best.Bandwidth.GB()) > 1e-9 {
		t.Errorf("best bandwidth = %v GB/s, CLI pipeline says %v", got.BestGBps, want.Best.Bandwidth.GB())
	}
	if len(got.Points) != len(want.Points) {
		t.Errorf("point count = %d, CLI pipeline has %d", len(got.Points), len(want.Points))
	}

	// Identical spec again: answered from cache, 200, cached flag set.
	resp2, body2 := postJob(t, ts, JobSpec{Kind: "stream", Machine: "cte-arm"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached POST = %d, want 200: %s", resp2.StatusCode, body2)
	}
	var hit JobView
	if err := json.Unmarshal(body2, &hit); err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.State != StateDone || hit.Result == nil {
		t.Errorf("resubmission not served from cache: %+v", hit)
	}
	if hit.Result.Stream.BestGBps != got.BestGBps {
		t.Error("cached result differs from the original run")
	}

	// The hit must show up on /v1/metrics.
	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	for _, want := range []string{
		"clusterd_cache_hits_total 1",
		"clusterd_cache_misses_total 1",
		"clusterd_cache_hit_ratio 0.5",
		"clusterd_jobs_submitted_total 2",
		"clusterd_jobs_completed_total 2",
		`clusterd_job_duration_seconds_count{kind="stream"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q\n---\n%s", want, metrics)
		}
	}
	// The executed run accumulated modeled energy; the cache hit did not
	// add a second helping (one executed stream job, one energy sample).
	if !strings.Contains(string(metrics), `clusterd_energy_joules_total{kind="stream"} `) {
		t.Errorf("metrics missing per-kind energy counter\n---\n%s", metrics)
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1})

	cases := []struct {
		name string
		body string
	}{
		{"malformed json", `{"kind": `},
		{"unknown field", `{"kind":"stream","flux_capacitor":1}`},
		{"unknown kind", `{"kind":"dgemm"}`},
		{"unknown machine", `{"kind":"stream","machine":"summit"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", resp.StatusCode)
			}
			var e map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if e["error"] == "" {
				t.Error("error body missing the error field")
			}
		})
	}
}

func TestJobLifecycleOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1, runner: fastRunner})

	resp, body := postJob(t, ts, JobSpec{Kind: "hpcg", Machine: "mn4", Nodes: 16})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Spec.Version != "optimized" || v.Spec.Machine != "mn4" {
		t.Errorf("returned spec not normalised: %+v", v.Spec)
	}
	done := pollDone(t, ts, v.ID)
	if done.State != StateDone {
		t.Fatalf("state %s (%s)", done.State, done.Error)
	}

	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	getJSON(t, ts, "/v1/jobs", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != v.ID {
		t.Errorf("job listing = %+v", list.Jobs)
	}

	if resp := getJSON(t, ts, "/v1/jobs/junk", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown job = %d, want 404", resp.StatusCode)
	}
}

func TestCancelOverHTTP(t *testing.T) {
	release := make(chan struct{})
	ts, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheSize: -1,
		runner: func(ctx context.Context, spec JobSpec) (*Result, error) {
			<-release
			return fastRunner(ctx, spec)
		}})
	defer close(release)

	_, body1 := postJob(t, ts, JobSpec{Kind: "fpu", Seed: 1})
	_ = body1
	_, body2 := postJob(t, ts, JobSpec{Kind: "fpu", Seed: 2})
	var queued JobView
	if err := json.Unmarshal(body2, &queued); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.State != StateCancelled {
		t.Errorf("cancelled job state = %s", v.State)
	}
}

func TestMachinesAndHealth(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1, runner: fastRunner})

	var machines struct {
		Machines []struct {
			Name         string `json:"name"`
			Preset       string `json:"preset"`
			CoresPerNode int    `json:"cores_per_node"`
			Network      string `json:"network"`
		} `json:"machines"`
		Kinds []string `json:"kinds"`
	}
	if resp := getJSON(t, ts, "/v1/machines", &machines); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/machines = %d", resp.StatusCode)
	}
	if len(machines.Machines) != 4 {
		t.Fatalf("machine count = %d, want 4", len(machines.Machines))
	}
	byPreset := map[string]int{}
	for _, m := range machines.Machines {
		byPreset[m.Preset] = m.CoresPerNode
	}
	if byPreset["cte-arm"] != 48 {
		t.Errorf("cte-arm cores/node = %d, want 48", byPreset["cte-arm"])
	}
	if byPreset["mn4"] != 48 {
		t.Errorf("mn4 cores/node = %d, want 48", byPreset["mn4"])
	}
	if byPreset["thunderx2"] != 64 {
		t.Errorf("thunderx2 cores/node = %d, want 64", byPreset["thunderx2"])
	}
	if byPreset["fugaku"] != 48 {
		t.Errorf("fugaku cores/node = %d, want 48", byPreset["fugaku"])
	}
	if fmt.Sprint(machines.Kinds) != fmt.Sprint(Kinds()) {
		t.Errorf("kinds = %v, want %v", machines.Kinds, Kinds())
	}

	var health struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if resp := getJSON(t, ts, "/v1/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/healthz = %d", resp.StatusCode)
	}
	if health.Status != "ok" || health.Workers != 1 {
		t.Errorf("health = %+v", health)
	}
}

// TestKindsEndpoint pins GET /v1/kinds onto the experiment registry:
// all seven kinds, in registry order, each carrying its parameter
// schema, plus the shared fields every kind accepts.
func TestKindsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1, runner: fastRunner})

	var listing struct {
		Kinds []struct {
			Kind   string `json:"kind"`
			Title  string `json:"title"`
			Figure string `json:"figure"`
			Fields []struct {
				Name  string `json:"name"`
				Type  string `json:"type"`
				Usage string `json:"usage"`
			} `json:"fields"`
		} `json:"kinds"`
		SharedFields []struct {
			Name string `json:"name"`
		} `json:"shared_fields"`
	}
	if resp := getJSON(t, ts, "/v1/kinds", &listing); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/kinds = %d", resp.StatusCode)
	}
	want := Kinds()
	if len(listing.Kinds) != len(want) {
		t.Fatalf("kind count = %d, want %d", len(listing.Kinds), len(want))
	}
	fieldsByKind := map[string][]string{}
	for i, k := range listing.Kinds {
		if k.Kind != want[i] {
			t.Errorf("kinds[%d] = %q, want %q (registry order)", i, k.Kind, want[i])
		}
		if k.Title == "" || k.Figure == "" {
			t.Errorf("kind %q missing title or figure", k.Kind)
		}
		for _, f := range k.Fields {
			if f.Type == "" || f.Usage == "" {
				t.Errorf("kind %q field %q missing type or usage", k.Kind, f.Name)
			}
			fieldsByKind[k.Kind] = append(fieldsByKind[k.Kind], f.Name)
		}
	}
	if got := fmt.Sprint(fieldsByKind["net"]); got != "[size_bytes iters src_node dst_node faults]" {
		t.Errorf("net schema fields = %v", got)
	}
	shared := map[string]bool{}
	for _, f := range listing.SharedFields {
		shared[f.Name] = true
	}
	for _, name := range []string{"machine", "seed", "deadline_ms"} {
		if !shared[name] {
			t.Errorf("shared_fields missing %q", name)
		}
	}
}

// TestAllKindsRunEndToEnd sweeps one real job of each kind through the
// HTTP API, proving every evaluation layer is reachable from the daemon.
func TestAllKindsRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every simulation layer")
	}
	ts, _ := newTestServer(t, Config{Workers: 4, JobTimeout: 5 * time.Minute})

	specs := []JobSpec{
		{Kind: "stream", Machine: "mn4", Language: "fortran", Ranks: 8},
		{Kind: "hybrid-stream", Machine: "cte-arm"},
		{Kind: "fpu", Machine: "cte-arm", Iters: 2000},
		{Kind: "net", Machine: "cte-arm", SizeBytes: 65536, SrcNode: 0, DstNode: 100},
		{Kind: "hpl", Machine: "cte-arm", Nodes: 16},
		{Kind: "hpcg", Machine: "mn4", Nodes: 8, Version: "vanilla"},
		{Kind: "app", App: "nemo", Machine: "cte-arm"},
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		resp, body := postJob(t, ts, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %+v = %d: %s", spec, resp.StatusCode, body)
		}
		var v JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		ids[i] = v.ID
	}
	for i, id := range ids {
		v := pollDone(t, ts, id)
		if v.State != StateDone {
			t.Errorf("%s job: %s (%s)", specs[i].Kind, v.State, v.Error)
			continue
		}
		if v.Result == nil || v.Result.Summary == "" {
			t.Errorf("%s job has no summary", specs[i].Kind)
		}
	}
}

// TestMissAnswersQueued submits many fresh specs to a service whose
// runner returns at once: a worker can finish such a job before Submit
// returns, but the answer must still be the queued 202, never a 200 that
// reads as a cache hit. The queue is deep enough that nothing is shed.
func TestMissAnswersQueued(t *testing.T) {
	svc := New(Config{Workers: 2, QueueDepth: 1024, runner: func(context.Context, JobSpec) (*Result, error) { return &Result{}, nil }})
	defer closeNow(t, svc)
	srv := NewServer(svc)
	for i := range 300 {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(fmt.Sprintf(`{"kind":"fpu","iters":%d}`, 1000+i))))
		if rec.Code != http.StatusAccepted || !strings.Contains(rec.Body.String(), `"state": "queued"`) {
			t.Fatalf("submission %d answered %d:\n%s", i, rec.Code, rec.Body.String())
		}
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

// TestOversizedBodiesAnswer413 sends a 64 MiB body to each shard endpoint
// that decodes JSON, a job submission and a replication peer set. Each
// must answer 413 having read at most MaxSpecBytes of it, plus one
// 512-byte read of the JSON decoder's buffer.
func TestOversizedBodiesAnswer413(t *testing.T) {
	svc := New(Config{Workers: 1, runner: func(context.Context, JobSpec) (*Result, error) { return &Result{}, nil }})
	defer closeNow(t, svc)
	srv := NewServer(svc)
	for _, c := range []struct{ method, path string }{
		{http.MethodPost, "/v1/jobs"},
		{http.MethodPut, "/v1/replication/peers"},
	} {
		body := &hugeSpec{size: 64 << 20}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, body))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s with a 64 MiB body answered %d, want 413:\n%s", c.method, c.path, rec.Code, rec.Body.String())
		}
		if body.read > MaxSpecBytes+512 {
			t.Errorf("%s %s read %d bytes of a 64 MiB body, cap %d", c.method, c.path, body.read, MaxSpecBytes)
		}
	}
}
