package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"clustereval/internal/journal"
	"clustereval/internal/service"
)

// writeJournal builds a shard journal from records (test fixture for a
// crashed shard).
func writeJournal(t *testing.T, path string, recs ...journal.Record) {
	t.Helper()
	jnl, _, err := journal.Open(path)
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	if err := jnl.Append(recs...); err != nil {
		t.Fatalf("journal.Append: %v", err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatalf("journal.Close: %v", err)
	}
}

func specAndKey(t *testing.T, specJSON string) (json.RawMessage, string) {
	t.Helper()
	var spec service.JobSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		t.Fatal(err)
	}
	norm, key, err := service.Canonicalize(spec)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(norm)
	if err != nil {
		t.Fatal(err)
	}
	return buf, key
}

var journalEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestUnfinishedJobs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s1.wal")
	doneSpec, doneKey := specAndKey(t, `{"kind":"net","size_bytes":1024,"iters":5,"dst_node":1}`)
	runSpec, runKey := specAndKey(t, `{"kind":"net","size_bytes":2048,"iters":5,"dst_node":2}`)
	qSpec, qKey := specAndKey(t, `{"kind":"net","size_bytes":4096,"iters":5,"dst_node":3}`)
	writeJournal(t, path,
		journal.Record{Type: journal.TypeSubmitted, JobID: "j000001", At: journalEpoch, Spec: doneSpec, Key: doneKey},
		journal.Record{Type: journal.TypeStarted, JobID: "j000001", At: journalEpoch},
		journal.Record{Type: journal.TypeDone, JobID: "j000001", At: journalEpoch, Result: json.RawMessage(`{}`)},
		journal.Record{Type: journal.TypeSubmitted, JobID: "j000002", At: journalEpoch, Spec: runSpec, Key: runKey},
		journal.Record{Type: journal.TypeStarted, JobID: "j000002", At: journalEpoch},
		journal.Record{Type: journal.TypeSubmitted, JobID: "j000003", At: journalEpoch, Spec: qSpec, Key: qKey},
	)

	got, err := UnfinishedJobs(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d unfinished jobs, want 2 (running + queued): %+v", len(got), got)
	}
	if got[0].ID != "j000002" || got[0].Key != runKey {
		t.Fatalf("first unfinished = %+v, want the running job j000002", got[0])
	}
	if got[1].ID != "j000003" || got[1].Key != qKey {
		t.Fatalf("second unfinished = %+v, want the queued job j000003", got[1])
	}
}

func TestUnfinishedJobsCleanShutdownYieldsNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s1.wal")
	spec, key := specAndKey(t, `{"kind":"net","size_bytes":2048,"iters":5,"dst_node":2}`)
	writeJournal(t, path,
		journal.Record{Type: journal.TypeSubmitted, JobID: "j000001", At: journalEpoch, Spec: spec, Key: key},
		journal.Record{Type: journal.TypeShutdown, At: journalEpoch},
	)
	got, err := UnfinishedJobs(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("clean shutdown yielded %d jobs to move, want 0", len(got))
	}
}

func TestUnfinishedJobsMissingJournal(t *testing.T) {
	got, err := UnfinishedJobs(filepath.Join(t.TempDir(), "never-written.wal"))
	if err != nil || len(got) != 0 {
		t.Fatalf("missing journal: got %v, %v; want empty, nil", got, err)
	}
}

// FailShard on a crashed shard must re-enqueue its unfinished jobs onto
// survivors and keep the dead shard's fleet job IDs resolvable.
func TestFailShardHandsOffJournal(t *testing.T) {
	dir := t.TempDir()
	deadJournal := filepath.Join(dir, "s9.wal")
	spec1, key1 := specAndKey(t, `{"kind":"net","size_bytes":2048,"iters":5,"dst_node":2}`)
	spec2, key2 := specAndKey(t, `{"kind":"net","size_bytes":8192,"iters":5,"dst_node":4}`)
	writeJournal(t, deadJournal,
		journal.Record{Type: journal.TypeSubmitted, JobID: "j000001", At: journalEpoch, Spec: spec1, Key: key1},
		journal.Record{Type: journal.TypeStarted, JobID: "j000001", At: journalEpoch},
		journal.Record{Type: journal.TypeSubmitted, JobID: "j000002", At: journalEpoch, Spec: spec2, Key: key2},
	)

	// One live shard to inherit the work, one dead shard with the journal.
	svc := service.New(service.Config{Workers: 2})
	srv := httptest.NewServer(service.NewServer(svc))
	defer srv.Close()
	coord, err := NewCoordinator(CoordinatorConfig{}, []Shard{
		{Name: "s0", BaseURL: srv.URL},
		{Name: "s9", JournalPath: deadJournal}, // never came up
	})
	if err != nil {
		t.Fatal(err)
	}

	moved, err := coord.FailShard(context.Background(), "s9")
	if err != nil {
		t.Fatal(err)
	}
	if moved != 2 {
		t.Fatalf("handoff moved %d jobs, want 2", moved)
	}
	if got := coord.rerouted.Value(); got != 2 {
		t.Fatalf("fleet_rerouted_jobs_total = %d, want 2", got)
	}

	// The dead shard's public IDs must resolve to the new home.
	front := httptest.NewServer(coord)
	defer front.Close()
	for _, oldID := range []string{"s9-j000001", "s9-j000002"} {
		v := waitDone(t, front.URL, oldID)
		if v.State != "done" {
			t.Fatalf("handed-off job %s ended %q (%s)", oldID, v.State, v.Error)
		}
	}

	// Failing the same shard again must be a no-op, not a double-submit.
	moved, err = coord.FailShard(context.Background(), "s9")
	if err != nil || moved != 0 {
		t.Fatalf("second FailShard: moved=%d err=%v, want 0, nil", moved, err)
	}

	// A dead shard can never be revived into the ring.
	coord.SetShardLive("s9", true)
	if coord.ring.Shards()["s9"] {
		t.Fatal("dead shard rejoined the ring via SetShardLive")
	}

	_ = svc.Close(context.Background())
}

// fleetRoutes reads the route-table size /v1/fleet reports.
func fleetRoutes(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Routes int `json:"routes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Routes
}

// The route table holds handoff redirects only: a relayed job's fleet ID
// already names its shard, so relaying adds no entry, and after a
// handoff the table holds exactly one entry per re-enqueued job.
func TestRouteTableHoldsOnlyHandoffs(t *testing.T) {
	deadJournal := filepath.Join(t.TempDir(), "s9.wal")
	spec1, key1 := specAndKey(t, `{"kind":"net","size_bytes":2048,"iters":5,"dst_node":2}`)
	spec2, key2 := specAndKey(t, `{"kind":"net","size_bytes":8192,"iters":5,"dst_node":4}`)
	writeJournal(t, deadJournal,
		journal.Record{Type: journal.TypeSubmitted, JobID: "j000001", At: journalEpoch, Spec: spec1, Key: key1},
		journal.Record{Type: journal.TypeSubmitted, JobID: "j000002", At: journalEpoch, Spec: spec2, Key: key2},
	)
	svc := service.New(service.Config{Workers: 2})
	defer func() { _ = svc.Close(context.Background()) }()
	srv := httptest.NewServer(service.NewServer(svc))
	defer srv.Close()
	coord, err := NewCoordinator(CoordinatorConfig{}, []Shard{
		{Name: "s0", BaseURL: srv.URL},
		{Name: "s9", JournalPath: deadJournal}, // never came up
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord)
	defer front.Close()

	const k = 8
	ids := make([]string, 0, k+2)
	for i := 0; i < k; i++ {
		v, resp := postJob(t, front.URL, netSpec(i))
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		ids = append(ids, v.ID)
	}
	if got := fleetRoutes(t, front.URL); got != 0 {
		t.Fatalf("routes = %d after %d relayed submissions, want 0", got, k)
	}

	if _, err := coord.FailShard(context.Background(), "s9"); err != nil {
		t.Fatal(err)
	}
	if got, want := fleetRoutes(t, front.URL), int(coord.rerouted.Value()); got != want || want != 2 {
		t.Fatalf("routes = %d after the handoff, fleet_rerouted_jobs_total = %d, want both 2", got, want)
	}
	for _, id := range append(ids, "s9-j000001", "s9-j000002") {
		if v := waitDone(t, front.URL, id); v.State != "done" {
			t.Fatalf("job %s ended %q (%s), want done", id, v.State, v.Error)
		}
	}
}

func TestFailShardUnknown(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	srv := httptest.NewServer(service.NewServer(svc))
	defer srv.Close()
	coord, err := NewCoordinator(CoordinatorConfig{}, []Shard{{Name: "s0", BaseURL: srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.FailShard(context.Background(), "nope"); err == nil {
		t.Fatal("FailShard on an unknown shard succeeded")
	}
	_ = svc.Close(context.Background())
}

// A handoff with no surviving shard counts errors instead of losing the
// jobs silently.
func TestFailShardNoSurvivors(t *testing.T) {
	dir := t.TempDir()
	deadJournal := filepath.Join(dir, "s0.wal")
	spec, key := specAndKey(t, `{"kind":"net","size_bytes":2048,"iters":5,"dst_node":2}`)
	writeJournal(t, deadJournal,
		journal.Record{Type: journal.TypeSubmitted, JobID: "j000001", At: journalEpoch, Spec: spec, Key: key},
	)
	coord, err := NewCoordinator(CoordinatorConfig{}, []Shard{{Name: "s0", JournalPath: deadJournal}})
	if err != nil {
		t.Fatal(err)
	}
	moved, err := coord.FailShard(context.Background(), "s0")
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Fatalf("moved %d jobs with no survivors", moved)
	}
	if got := coord.handoffErrors.Value(); got != 1 {
		t.Fatalf("fleet_handoff_errors_total = %d, want 1", got)
	}
}

// End-to-end: a shard crashes mid-workload (simulated by killing its
// listener), its journal is handed off, and every job still reaches
// exactly one terminal state via its original fleet ID.
//
// To make the crash deterministic rather than a race against s1's
// workers, s1 runs a single worker with a long retry backoff and its
// first job carries a node fault: the job fails with a retryable fault
// and parks the worker in a multi-second backoff, so everything behind
// it is still queued when the crash lands.
func TestHandoffAfterSimulatedCrash(t *testing.T) {
	dir := t.TempDir()
	crashJournal := filepath.Join(dir, "s1.wal")

	// Shard s1 runs durable, accepts work, then "crashes": we stop its
	// HTTP server without draining the service, leaving a journal whose
	// tail has no shutdown marker.
	svc0 := service.New(service.Config{Workers: 2})
	srv0 := httptest.NewServer(service.NewServer(svc0))
	defer srv0.Close()
	svc1, err := service.OpenDurable(service.Config{
		Workers: 1, MaxRetries: 5, RetryBackoff: 30 * time.Second,
	}, crashJournal)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(service.NewServer(svc1))

	coord, err := NewCoordinator(CoordinatorConfig{VirtualNodes: 32}, []Shard{
		{Name: "s0", BaseURL: srv0.URL},
		{Name: "s1", BaseURL: srv1.URL, JournalPath: crashJournal},
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord)
	defer front.Close()

	// The plug: a fault-carrying spec that routes to s1. It fails with a
	// retryable *NodeFailedError and holds s1's only worker in the 30s
	// retry backoff for the rest of the test.
	plugSpec := ""
	for i := 0; i < 4096 && plugSpec == ""; i++ {
		candidate := fmt.Sprintf(
			`{"kind":"net","size_bytes":%d,"iters":5,"dst_node":1,"faults":{"nodes":[{"node":1,"failed":true}]}}`,
			1024+i*64)
		if owner, _ := coord.ring.Lookup(canonicalKeyForTest(t, candidate)); owner == "s1" {
			plugSpec = candidate
		}
	}
	if plugSpec == "" {
		t.Fatal("could not find a fault spec owned by s1")
	}
	plug, resp := postJob(t, front.URL, plugSpec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("plug submit: HTTP %d", resp.StatusCode)
	}

	// Queue clean jobs behind the plug — they cannot finish on s1 — and
	// keep whatever lands on s0 as the control group.
	s1IDs := []string{}
	s0IDs := []string{}
	for i := 0; (len(s1IDs) < 3 || len(s0IDs) < 1) && i < 400; i++ {
		v, resp := postJob(t, front.URL, fmt.Sprintf(`{"kind":"net","size_bytes":%d,"iters":5,"dst_node":9}`, 1024+i*128))
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		if shard, _, _ := splitFleetID(v.ID); shard == "s1" {
			s1IDs = append(s1IDs, v.ID)
		} else {
			s0IDs = append(s0IDs, v.ID)
		}
	}
	if len(s1IDs) < 3 {
		t.Fatalf("could not land 3 jobs on s1 (got %d)", len(s1IDs))
	}

	// Crash s1: the listener dies; the service (and its journal handle)
	// is abandoned exactly as a SIGKILL would leave it, except the test
	// keeps holding the journal file handle, which FailShard tolerates
	// because the handoff reads the journal without opening it for append.
	srv1.CloseClientConnections()
	srv1.Close()

	moved, err := coord.FailShard(context.Background(), "s1")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(s1IDs) + 1; moved != want {
		t.Fatalf("FailShard moved %d jobs, want %d (plug + queued)", moved, want)
	}

	// Every clean job — including those originally on s1 — must reach
	// "done" exactly once via its original fleet ID. The plug must reach
	// a terminal state too: "failed", since its fault is deterministic.
	for _, id := range append(append([]string{}, s0IDs...), s1IDs...) {
		v := waitDone(t, front.URL, id)
		if v.State != "done" {
			t.Fatalf("job %s ended %q (%s) after handoff", id, v.State, v.Error)
		}
	}
	if v := waitDone(t, front.URL, plug.ID); v.State != "failed" {
		t.Fatalf("plug job %s ended %q, want failed (deterministic fault)", plug.ID, v.State)
	}

	_ = svc0.Close(context.Background())
	// s1's worker is parked in the 30s retry backoff; a cancelled context
	// makes Close flip the per-job contexts instead of waiting it out.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_ = svc1.Close(cancelled)
}
