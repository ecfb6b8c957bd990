package service

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"clustereval/internal/journal"
)

var updateViews = flag.Bool("update", false, "rewrite testdata/views.golden")

const viewsGolden = "testdata/views.golden"

// goldenSpecs is one job per kind: fleet-hot's pool shapes for net,
// stream, fpu and hpl (the net one with a seed above 2^53), plus the
// other three kinds.
var goldenSpecs = []string{
	`{"kind":"stream","ranks":7}`,
	`{"kind":"hybrid-stream","machine":"cte-arm"}`,
	`{"kind":"fpu","iters":3000}`,
	`{"kind":"net","size_bytes":4096,"iters":5,"dst_node":9,"seed":18446744073709551615}`,
	`{"kind":"hpl","nodes":11}`,
	`{"kind":"hpcg","machine":"mn4","nodes":8,"version":"vanilla"}`,
	`{"kind":"app","app":"nemo","machine":"cte-arm"}`,
}

// steppingClock returns a clock that starts at a fixed instant and
// advances 250 ms on every read, so a job's timestamps and duration are
// fixed by the order of the service's clock reads.
func steppingClock() func() time.Time {
	var mu sync.Mutex
	t := time.Date(2026, 1, 2, 3, 4, 5, 123456789, time.UTC)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(250 * time.Millisecond)
		return t
	}
}

// TestViewGoldens pins the exact bytes clusterd answers on the job API:
// for every kind a submission that misses the cache (202), the same spec
// once the job is done (a 200 hit) and a GET of the done job; then a
// cancellation of a queued job, a DELETE of a done one, a 400, a 404 and
// the listing. The clock steps on every read and one worker runs the
// jobs in submission order, after every submission is queued, so each
// timestamp is fixed. Regenerate with -update.
func TestViewGoldens(t *testing.T) {
	svc, pending := newService(Config{Workers: 1, clock: steppingClock()}, nil, nil)
	srv := NewServer(svc)
	var out bytes.Buffer
	do := func(method, path, body string) []byte {
		t.Helper()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		fmt.Fprintf(&out, "### %s %s %s\n%d %s\n", method, path, body, rec.Code, rec.Header().Get("Content-Type"))
		out.Write(rec.Body.Bytes())
		return rec.Body.Bytes()
	}
	idOf := func(body []byte) string {
		t.Helper()
		_, rest, ok := bytes.Cut(body, []byte(`"id": "`))
		id, _, ok2 := bytes.Cut(rest, []byte(`"`))
		if !ok || !ok2 {
			t.Fatalf("no id in %s", body)
		}
		return string(id)
	}

	// The workers have not started, so every submission stays queued.
	ids := make([]string, len(goldenSpecs))
	for i, spec := range goldenSpecs {
		ids[i] = idOf(do(http.MethodPost, "/v1/jobs", spec))
	}
	victim := idOf(do(http.MethodPost, "/v1/jobs", `{"kind":"net","size_bytes":2048,"iters":3,"dst_node":5}`))
	do(http.MethodDelete, "/v1/jobs/"+victim, "")
	do(http.MethodPost, "/v1/jobs", `{"kind":"warp-drive"}`)
	do(http.MethodGet, "/v1/jobs/j999999", "")

	svc.start(pending)
	for i, id := range ids {
		if v := waitTerminal(t, svc, id); v.State != StateDone {
			t.Fatalf("%s: job %s ended %s: %s", goldenSpecs[i], id, v.State, v.Error)
		}
	}
	for i, spec := range goldenSpecs {
		do(http.MethodPost, "/v1/jobs", spec)
		do(http.MethodGet, "/v1/jobs/"+ids[i], "")
	}
	do(http.MethodDelete, "/v1/jobs/"+ids[0], "")
	do(http.MethodGet, "/v1/jobs", "")
	closeNow(t, svc)

	if *updateViews {
		if err := os.WriteFile(viewsGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(viewsGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gotLines), len(wantLines)) {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("%s line %d:\n got %s\nwant %s", viewsGolden, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", viewsGolden, len(gotLines), len(wantLines))
	}
}

// TestStoredViewsConcurrent serves cache hits of one spec, and GETs of
// the done jobs they create, from several goroutines at once. They all
// share one cache entry's bytes; every body must be the one WriteJSON
// writes for the same view encoded whole.
func TestStoredViewsConcurrent(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer closeNow(t, svc)
	srv := NewServer(svc)
	spec := `{"kind":"hpl","nodes":11}`
	first, err := svc.Submit(JobSpec{Kind: "hpl", Nodes: 11})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, svc, first.ID)

	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 25 {
				req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(spec))
				if i%2 == 1 {
					req = httptest.NewRequest(http.MethodGet, "/v1/jobs/"+first.ID, nil)
				}
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				_, rest, _ := strings.Cut(rec.Body.String(), `"id": "`)
				id, _, _ := strings.Cut(rest, `"`)
				v, err := svc.Get(id)
				if err != nil || v.resultJSON == nil {
					t.Errorf("goroutine %d: job %q: %v, stored bytes %t", g, id, err, v.resultJSON != nil)
					return
				}
				v.resultJSON = nil
				whole := httptest.NewRecorder()
				WriteJSON(whole, rec.Code, v)
				if !bytes.Equal(rec.Body.Bytes(), whole.Body.Bytes()) {
					t.Errorf("goroutine %d: job %s spliced\n%s\nencoded whole\n%s", g, id, rec.Body.Bytes(), whole.Body.Bytes())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestStoredBytesJournalCompact requires the done records a durable
// shard journals from a cache entry's indented bytes, for the run that
// stored the entry and for a hit on it, to carry the compact result
// mustJSON encodes; after a restart, replay rebuilds the entry and a hit
// on it serves the same view bytes as before.
func TestStoredBytesJournalCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	svc := openDurable(t, Config{Workers: 1}, path)
	srv := NewServer(svc)
	spec := JobSpec{Kind: "fpu", Iters: 3000}
	first, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, svc, first.ID)
	if done.resultJSON == nil {
		t.Fatal("a job stored into the cache carries no stored bytes")
	}
	hit := func(srv *Server) []byte {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"kind":"fpu","iters":3000}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("hit: HTTP %d: %s", rec.Code, rec.Body.Bytes())
		}
		_, rest, _ := bytes.Cut(rec.Body.Bytes(), []byte(`"result": `))
		result, _, _ := bytes.Cut(rest, submittedAtMember)
		return result
	}
	before := hit(srv)
	closeNow(t, svc)

	jnl, recs, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	want := mustJSON(done.Result)
	dones := 0
	for _, r := range recs {
		if r.Type == journal.TypeDone {
			dones++
			if !bytes.Equal(r.Result, want) {
				t.Errorf("done record of %s carries\n%s\nwant\n%s", r.JobID, r.Result, want)
			}
		}
	}
	if dones != 2 {
		t.Fatalf("journal holds %d done records, want the run's and the hit's", dones)
	}

	svc = openDurable(t, Config{Workers: 1}, path)
	defer closeNow(t, svc)
	if after := hit(NewServer(svc)); !bytes.Equal(after, before) {
		t.Errorf("after replay a hit serves\n%s\nbefore it served\n%s", after, before)
	}
}
