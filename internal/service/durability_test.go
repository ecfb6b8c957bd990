package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clustereval/internal/faultsim"
	"clustereval/internal/journal"
)

// openDurable is OpenDurable with the test boilerplate folded in.
func openDurable(t *testing.T, cfg Config, path string) *Service {
	t.Helper()
	s, err := OpenDurable(cfg, path)
	if err != nil {
		t.Fatalf("OpenDurable(%s): %v", path, err)
	}
	return s
}

// TestDurableSurvivesCleanRestart drives the full lifecycle across two
// service incarnations over one journal: submit, run, cache-hit, drain,
// reopen — everything must come back with results intact and nothing may
// re-run.
func TestDurableSurvivesCleanRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	var calls atomic.Int64
	counting := func(ctx context.Context, spec JobSpec) (*Result, error) {
		calls.Add(1)
		return fastRunner(ctx, spec)
	}

	s := openDurable(t, Config{Workers: 1, runner: counting}, path)
	spec := JobSpec{Kind: "hpl", Nodes: 4}
	v1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, v1.ID)
	v2, err := s.Submit(spec) // cache hit, journaled as submitted+done
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Cached {
		t.Fatal("resubmission missed the cache")
	}
	closeNow(t, s)

	s2 := openDurable(t, Config{Workers: 1, runner: counting}, path)
	defer closeNow(t, s2)
	if got := s2.RecoveredJobs(); got != 2 {
		t.Errorf("RecoveredJobs = %d, want 2", got)
	}
	for _, id := range []string{v1.ID, v2.ID} {
		v, err := s2.Get(id)
		if err != nil {
			t.Fatalf("Get(%s) after restart: %v", id, err)
		}
		if v.State != StateDone || v.Result == nil || !v.Recovered {
			t.Errorf("job %s after restart: state %s, recovered %v, result %v",
				id, v.State, v.Recovered, v.Result)
		}
	}
	// The cache was rehydrated from the journaled result: a third
	// submission must hit it without touching the runner.
	v3, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !v3.Cached {
		t.Error("post-restart resubmission missed the rehydrated cache")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("runner called %d times across restarts, want 1", got)
	}
}

// TestDurableReenqueuesCrashVictims replays a journal that ends mid-job
// (submitted + started, no terminal record, no shutdown marker): exactly
// what a SIGKILL leaves behind. The job must run again to completion.
func TestDurableReenqueuesCrashVictims(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, _, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Now().Add(-time.Minute)
	err = j.Append(
		journal.Record{Type: journal.TypeSubmitted, JobID: "j000001", At: at,
			Spec: json.RawMessage(`{"kind":"fpu","seed":7}`)},
		journal.Record{Type: journal.TypeStarted, JobID: "j000001", At: at},
	)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	var firstSpec atomic.Value
	s := openDurable(t, Config{Workers: 1, runner: func(ctx context.Context, spec JobSpec) (*Result, error) {
		firstSpec.CompareAndSwap(nil, spec)
		return fastRunner(ctx, spec)
	}}, path)
	if got := s.RecoveredJobs(); got != 1 {
		t.Errorf("RecoveredJobs = %d, want 1", got)
	}
	final := waitTerminal(t, s, "j000001")
	if final.State != StateDone || final.Result == nil || !final.Recovered {
		t.Errorf("crash victim ended %s (recovered %v)", final.State, final.Recovered)
	}
	if spec, ok := firstSpec.Load().(JobSpec); !ok || spec.Kind != "fpu" || spec.Seed != 7 {
		t.Errorf("first executed spec = %+v, want the recovered fpu/seed=7 job", firstSpec.Load())
	}
	// The ID counter must continue past recovered IDs, not collide.
	v, err := s.Submit(JobSpec{Kind: "fpu", Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != "j000002" {
		t.Errorf("next ID after recovery = %s, want j000002", v.ID)
	}
	closeNow(t, s)

	// Third incarnation: the re-run's result must now be terminal state,
	// not another re-execution.
	s2 := openDurable(t, Config{Workers: 1, runner: func(context.Context, JobSpec) (*Result, error) {
		t.Error("runner called after recovered journal already holds terminal states")
		return nil, errors.New("unreachable")
	}}, path)
	defer closeNow(t, s2)
	v1, err := s2.Get("j000001")
	if err != nil {
		t.Fatal(err)
	}
	if v1.State != StateDone || v1.Result == nil {
		t.Errorf("after second restart job = %s, result %v", v1.State, v1.Result)
	}
}

// TestDurableCleanShutdownNeverReruns: a journal ending with the shutdown
// marker cannot hold crash victims, so an unfinished job there is closed
// out as cancelled instead of silently re-executed.
func TestDurableCleanShutdownNeverReruns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, _, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Now().Add(-time.Minute)
	err = j.Append(
		journal.Record{Type: journal.TypeSubmitted, JobID: "j000001", At: at,
			Spec: json.RawMessage(`{"kind":"fpu"}`)},
		journal.Record{Type: journal.TypeShutdown, At: at.Add(time.Second)},
	)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	s := openDurable(t, Config{Workers: 1, runner: func(context.Context, JobSpec) (*Result, error) {
		t.Error("runner called for a job unfinished at clean shutdown")
		return nil, errors.New("unreachable")
	}}, path)
	defer closeNow(t, s)
	v, err := s.Get("j000001")
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateCancelled || !strings.Contains(v.Error, "clean shutdown") {
		t.Errorf("job = %s (%q), want cancelled at clean shutdown", v.State, v.Error)
	}
}

// TestDurableRefusesCorruptJournal: mid-file damage is not ours to repair.
func TestDurableRefusesCorruptJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, _, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(
		journal.Record{Type: journal.TypeSubmitted, JobID: "j000001", At: time.Now(),
			Spec: json.RawMessage(`{"kind":"fpu"}`)},
		journal.Record{Type: journal.TypeStarted, JobID: "j000001", At: time.Now()},
	)
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[4] ^= 0xff // inside the first record's CRC prefix
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(Config{Workers: 1, runner: fastRunner}, path); !errors.Is(err, journal.ErrCorrupt) {
		t.Errorf("OpenDurable(corrupt) = %v, want ErrCorrupt", err)
	}
}

// TestDeadlineAbortsJob: a deadline_ms far below the job timeout must
// terminate the job with a deadline error well before the timeout would.
func TestDeadlineAbortsJob(t *testing.T) {
	s := New(Config{Workers: 1, CacheSize: -1, JobTimeout: time.Minute,
		runner: func(ctx context.Context, spec JobSpec) (*Result, error) {
			<-ctx.Done() // runs until aborted
			return nil, ctx.Err()
		}})
	defer closeNow(t, s)

	start := time.Now()
	v, err := s.Submit(JobSpec{Kind: "fpu", DeadlineMS: 30})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, v.ID)
	elapsed := time.Since(start)
	if final.State != StateFailed {
		t.Fatalf("deadlined job ended %s (%s)", final.State, final.Error)
	}
	if !strings.Contains(final.Error, "deadline exceeded") || !strings.Contains(final.Error, "deadline_ms=30") {
		t.Errorf("error %q does not name the deadline", final.Error)
	}
	if elapsed > 10*time.Second {
		t.Errorf("deadlined job took %v, nowhere near the 30ms deadline", elapsed)
	}
}

// TestDeadlineOnInjectedClock: deadline_ms is anchored at submission on
// the service's clock and must also be enforced on it. With the clock
// fixed at a date long past, a runtime-clock deadline would expire at
// once; the budget left on the service clock must run instead, and the
// failure message must name the timer that fired.
func TestDeadlineOnInjectedClock(t *testing.T) {
	fixed := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return fixed }
	blocking := func(ctx context.Context, _ JobSpec) (*Result, error) {
		<-ctx.Done() // runs until aborted
		return nil, ctx.Err()
	}
	for _, tc := range []struct {
		name    string
		cfg     Config
		spec    JobSpec
		state   JobState
		errPart string
	}{
		{"budget left runs to completion", Config{},
			JobSpec{Kind: "net", Machine: "mn4", DeadlineMS: 60000}, StateDone, ""},
		{"deadline_ms fires", Config{JobTimeout: time.Minute, runner: blocking},
			JobSpec{Kind: "fpu", DeadlineMS: 50}, StateFailed, "deadline exceeded: deadline_ms=50 "},
		{"job timeout fires", Config{JobTimeout: 20 * time.Millisecond, runner: blocking},
			JobSpec{Kind: "fpu", DeadlineMS: 60000}, StateFailed, "job timed out after 20ms"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Workers, cfg.CacheSize, cfg.clock = 1, -1, clock
			s := New(cfg)
			defer closeNow(t, s)
			v, err := s.Submit(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			final := waitTerminal(t, s, v.ID)
			if final.State != tc.state || !strings.Contains(final.Error, tc.errPart) {
				t.Errorf("job ended %s (%q), want %s with %q", final.State, final.Error, tc.state, tc.errPart)
			}
		})
	}
}

// TestDeadlineDoesNotSplitCache: deadline_ms is stripped from the cache
// key, so a deadlined resubmission of a completed spec is a pure hit.
func TestDeadlineDoesNotSplitCache(t *testing.T) {
	_, k1, err := Canonicalize(JobSpec{Kind: "fpu", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	_, k2, err := Canonicalize(JobSpec{Kind: "fpu", Seed: 9, DeadlineMS: 60000})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("deadline changed the cache key: %s vs %s", k1, k2)
	}
	if _, _, err := Canonicalize(JobSpec{Kind: "fpu", DeadlineMS: -1}); err == nil {
		t.Error("negative deadline_ms accepted")
	}

	var calls atomic.Int64
	s := New(Config{Workers: 1, runner: func(ctx context.Context, spec JobSpec) (*Result, error) {
		calls.Add(1)
		return fastRunner(ctx, spec)
	}})
	defer closeNow(t, s)
	v, err := s.Submit(JobSpec{Kind: "fpu", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, v.ID)
	hit, err := s.Submit(JobSpec{Kind: "fpu", Seed: 9, DeadlineMS: 60000})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || calls.Load() != 1 {
		t.Errorf("deadlined resubmission: cached %v, runner calls %d", hit.Cached, calls.Load())
	}
}

// TestLoadShedding fills the queue past the shed threshold and expects an
// *OverloadError with a retry hint, while a genuinely full queue keeps its
// distinct ErrQueueFull answer.
func TestLoadShedding(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 4, CacheSize: -1, ShedThreshold: 0.5,
		runner: func(ctx context.Context, spec JobSpec) (*Result, error) {
			<-release
			return fastRunner(ctx, spec)
		}})
	defer closeNow(t, s)
	defer close(release) // LIFO: unblock the runner before the drain

	// Worker takes job 1; jobs 2 and 3 bring the queue to saturation 0.5.
	if _, err := s.Submit(JobSpec{Kind: "fpu", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.QueueDepth() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for seed := uint64(2); seed <= 3; seed++ {
		if _, err := s.Submit(JobSpec{Kind: "fpu", Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}

	_, err := s.Submit(JobSpec{Kind: "fpu", Seed: 4})
	var overload *OverloadError
	if !errors.As(err, &overload) {
		t.Fatalf("submit at saturation = %v, want *OverloadError", err)
	}
	if overload.RetryAfter <= 0 || !strings.Contains(overload.Reason, "shedding") {
		t.Errorf("overload hint = %+v", overload)
	}
	if got := s.shed.Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
}

// TestBreakerLifecycle walks the circuit breaker through all three states:
// failures open it, the cooldown admits exactly one half-open probe, and
// the probe's success closes it. Specs without faults are never gated.
func TestBreakerLifecycle(t *testing.T) {
	faulty := func() JobSpec {
		return JobSpec{Kind: "net", Faults: &faultsim.Spec{
			Nodes: []faultsim.NodeFault{{Node: 1, Failed: true}},
		}}
	}
	var failing atomic.Bool
	failing.Store(true)
	probeRunning := make(chan struct{})
	var probeOnce sync.Once
	release := make(chan struct{})

	const cooldown = 50 * time.Millisecond
	s := New(Config{Workers: 1, CacheSize: -1, MaxRetries: -1,
		BreakerThreshold: 0.5, BreakerMinSamples: 4, BreakerCooldown: cooldown,
		runner: func(ctx context.Context, spec JobSpec) (*Result, error) {
			if spec.Faults == nil {
				return fastRunner(ctx, spec)
			}
			if failing.Load() {
				return nil, &faultsim.NodeFailedError{Node: 1}
			}
			probeOnce.Do(func() { close(probeRunning) })
			select {
			case <-release:
				return fastRunner(ctx, spec)
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}})
	defer closeNow(t, s)

	// Four failing fault jobs fill the outcome window past the trip point.
	for i := 0; i < 4; i++ {
		v, err := s.Submit(faulty())
		if err != nil {
			t.Fatalf("failing submit %d: %v", i, err)
		}
		if final := waitTerminal(t, s, v.ID); final.State != StateFailed || !final.Degraded {
			t.Fatalf("fault job %d ended %s (degraded %v)", i, final.State, final.Degraded)
		}
	}
	if state := s.BreakerState(); state != "closed" {
		t.Errorf("breaker tripped before any admission decision: %s", state)
	}

	// The next fault-carrying spec trips and is rejected; plain specs pass.
	_, err := s.Submit(faulty())
	var overload *OverloadError
	if !errors.As(err, &overload) || !strings.Contains(overload.Reason, "circuit breaker") {
		t.Fatalf("submit against failing cluster = %v, want breaker OverloadError", err)
	}
	if state := s.BreakerState(); state != "open" {
		t.Errorf("breaker = %s after trip, want open", state)
	}
	if got := s.shed.Value(); got != 1 {
		t.Errorf("shed counter = %d after breaker rejection, want 1", got)
	}
	plain, err := s.Submit(JobSpec{Kind: "fpu", Seed: 99})
	if err != nil {
		t.Fatalf("fault-free spec gated by open breaker: %v", err)
	}
	waitTerminal(t, s, plain.ID)

	// After the cooldown one probe goes through; a second fault spec is
	// still rejected while it runs.
	failing.Store(false)
	time.Sleep(cooldown + 20*time.Millisecond)
	probe, err := s.Submit(faulty())
	if err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	<-probeRunning
	if state := s.BreakerState(); state != "half-open" {
		t.Errorf("breaker = %s during probe, want half-open", state)
	}
	if _, err := s.Submit(faulty()); !errors.As(err, &overload) {
		t.Errorf("second fault spec during probe = %v, want OverloadError", err)
	}

	close(release)
	if final := waitTerminal(t, s, probe.ID); final.State != StateDone {
		t.Fatalf("probe ended %s (%s)", final.State, final.Error)
	}
	if state := s.BreakerState(); state != "closed" {
		t.Errorf("breaker = %s after successful probe, want closed", state)
	}
}

// TestShedOverHTTP pins the wire contract: a shed submission answers 429
// with a Retry-After header and shows up in /v1/metrics.
func TestShedOverHTTP(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ts, svc := newTestServer(t, Config{Workers: 1, QueueDepth: 4, CacheSize: -1, ShedThreshold: 0.5,
		runner: func(ctx context.Context, spec JobSpec) (*Result, error) {
			<-release
			return fastRunner(ctx, spec)
		}})

	postJob(t, ts, JobSpec{Kind: "fpu", Seed: 1})
	deadline := time.Now().Add(5 * time.Second)
	for svc.QueueDepth() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for seed := uint64(2); seed <= 3; seed++ {
		if resp, body := postJob(t, ts, JobSpec{Kind: "fpu", Seed: seed}); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST seed %d = %d: %s", seed, resp.StatusCode, body)
		}
	}

	resp, body := postJob(t, ts, JobSpec{Kind: "fpu", Seed: 4})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("POST at saturation = %d, want 429: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e["error"], "shedding") {
		t.Errorf("429 body = %s", body)
	}

	var metrics strings.Builder
	if err := svc.Registry().WriteText(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"clusterd_shed_total 1", "clusterd_breaker_state 0"} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestDurableMetricsOverHTTP: the journal counters are visible on the wire.
func TestDurableMetricsOverHTTP(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	svc := openDurable(t, Config{Workers: 1, runner: fastRunner}, path)
	v, err := svc.Submit(JobSpec{Kind: "fpu", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, svc, v.ID)
	closeNow(t, svc)

	svc2 := openDurable(t, Config{Workers: 1, runner: fastRunner}, path)
	defer closeNow(t, svc2)
	var metrics strings.Builder
	if err := svc2.Registry().WriteText(&metrics); err != nil {
		t.Fatal(err)
	}
	// submitted + started + done + shutdown replayed = 4 records.
	for _, want := range []string{
		"clusterd_recovered_jobs_total 1",
		"clusterd_journal_records_total 4",
		"clusterd_journal_errors_total 0",
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics missing %q\n---\n%s", want, metrics.String())
		}
	}
}
