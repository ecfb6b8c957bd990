package fleet

import (
	"context"
	"io"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"clustereval/internal/journal"
)

// buildClusterd compiles the real daemon binary for supervisor tests.
func buildClusterd(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping child-process supervision test in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "clusterd")
	cmd := exec.Command("go", "build", "-o", bin, "clustereval/cmd/clusterd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building clusterd: %v\n%s", err, out)
	}
	return bin
}

// waitLive polls until the named shard is (or is not) live.
func waitLive(t *testing.T, c *Coordinator, shard string, want bool) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		for _, st := range c.allShards() {
			st.mu.Lock()
			name, live := st.decl.Name, st.live
			st.mu.Unlock()
			if name == shard && live == want {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("shard %s never became live=%v", shard, want)
}

// restartBackoff must be a pure function of (shard, attempt): same
// inputs, same delay — reproducible restart schedules — while different
// shards desynchronize so a fleet-wide crash doesn't respawn everyone on
// the same instant.
func TestRestartBackoffDeterministicJitter(t *testing.T) {
	base, max := 100*time.Millisecond, 5*time.Second
	for attempt := 1; attempt <= 10; attempt++ {
		got := restartBackoff(base, max, "s0", attempt)
		if again := restartBackoff(base, max, "s0", attempt); again != got {
			t.Fatalf("attempt %d: %v then %v; jitter must be deterministic", attempt, got, again)
		}
		exp := base
		for i := 1; i < attempt && exp < max; i++ {
			exp *= 2
		}
		if exp > max {
			exp = max
		}
		lo, hi := time.Duration(float64(exp)*0.75), time.Duration(float64(exp)*1.25)
		if got < lo || got >= hi {
			t.Fatalf("attempt %d: delay %v outside jitter band [%v, %v)", attempt, got, lo, hi)
		}
	}
	diverged := false
	for attempt := 1; attempt <= 10 && !diverged; attempt++ {
		diverged = restartBackoff(base, max, "s0", attempt) != restartBackoff(base, max, "s1", attempt)
	}
	if !diverged {
		t.Fatal("s0 and s1 share an identical 10-attempt backoff schedule; jitter is not shard-seeded")
	}
}

// Clock-injected supervision: hostSleep is overridden to record delays,
// the child is a binary that exits instantly without a banner, and the
// recorded sleeps must match restartBackoff's predicted schedule exactly.
func TestSupervisorSleepsJitteredSchedule(t *testing.T) {
	var mu sync.Mutex
	var slept []time.Duration
	origSleep := hostSleep
	hostSleep = func(d time.Duration) {
		mu.Lock()
		slept = append(slept, d)
		mu.Unlock()
	}
	defer func() { hostSleep = origSleep }()

	coord, err := NewCoordinator(CoordinatorConfig{VirtualNodes: 8}, []Shard{{Name: "s0"}})
	if err != nil {
		t.Fatal(err)
	}
	const base, max = 10 * time.Millisecond, 40 * time.Millisecond
	sup := NewSupervisor(SupervisorConfig{
		Bin:            "/bin/false", // exits 1 immediately, never announces
		RestartBackoff: base,
		MaxBackoff:     max,
		MaxRestarts:    3,
		Stdout:         io.Discard,
		Stderr:         io.Discard,
	}, coord)
	err = sup.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "shard dead after 3 restarts") {
		t.Fatalf("Run = %v, want restart-budget exhaustion", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(slept) != 3 {
		t.Fatalf("recorded %d sleeps (%v), want one per consumed restart (3)", len(slept), slept)
	}
	for i, d := range slept {
		if want := restartBackoff(base, max, "s0", i+1); d != want {
			t.Fatalf("restart %d slept %v, want the deterministic schedule's %v", i+1, d, want)
		}
	}
}

// End-to-end through real processes: the supervisor spawns clusterd
// children, learns their addresses from the banner, restarts a SIGKILLed
// shard with the same journal, and the killed shard's jobs stay
// resolvable under their original fleet IDs.
func TestSupervisorRestartsKilledShard(t *testing.T) {
	bin := buildClusterd(t)
	dir := t.TempDir()

	coord, err := NewCoordinator(CoordinatorConfig{VirtualNodes: 32}, []Shard{
		{Name: "s0", JournalPath: filepath.Join(dir, "s0.wal")},
		{Name: "s1", JournalPath: filepath.Join(dir, "s1.wal")},
	})
	if err != nil {
		t.Fatal(err)
	}
	sup := NewSupervisor(SupervisorConfig{
		Bin:            bin,
		BaseArgs:       []string{"-workers", "2", "-queue", "64"},
		RestartBackoff: 50 * time.Millisecond,
		Stdout:         io.Discard,
		Stderr:         io.Discard,
	}, coord)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	supDone := make(chan error, 1)
	go func() { supDone <- sup.Run(ctx) }()

	waitLive(t, coord, "s0", true)
	waitLive(t, coord, "s1", true)

	front := httptest.NewServer(coord)
	defer front.Close()

	// Land one job on each shard and wait for both results.
	ids := map[string]string{}
	for i := 0; len(ids) < 2 && i < 400; i++ {
		v, resp := postJob(t, front.URL, netSpec(i))
		if resp.StatusCode != 200 && resp.StatusCode != 202 {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		shard, _, _ := splitFleetID(v.ID)
		if _, ok := ids[shard]; !ok {
			ids[shard] = v.ID
		}
	}
	if len(ids) < 2 {
		t.Fatal("could not land jobs on both shards")
	}
	for _, id := range ids {
		if v := waitDone(t, front.URL, id); v.State != "done" {
			t.Fatalf("job %s ended %q", id, v.State)
		}
	}

	// SIGKILL s1's child. The supervisor must notice, restart it with the
	// same journal, and republish its (new) address.
	pid := sup.PID("s1")
	if pid == 0 {
		t.Fatal("no PID recorded for s1")
	}
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatalf("kill s1 (pid %d): %v", pid, err)
	}
	waitLive(t, coord, "s1", false)
	waitLive(t, coord, "s1", true)
	if sup.PID("s1") == pid {
		t.Fatal("s1 was not respawned: same PID after SIGKILL")
	}
	if coord.restarts.Value() == 0 {
		t.Fatal("fleet_shard_restarts_total not incremented")
	}

	// The journal-recovered shard must still resolve its pre-kill job
	// under the original fleet ID — exactly-once across a restart.
	if v := waitDone(t, front.URL, ids["s1"]); v.State != "done" {
		t.Fatalf("job %s not recovered after restart: %q", ids["s1"], v.State)
	}
	// And fresh work routed at s1 completes on the new child.
	v, resp := postJob(t, front.URL, netSpec(900))
	if resp.StatusCode != 200 && resp.StatusCode != 202 {
		t.Fatalf("post-restart submit: HTTP %d", resp.StatusCode)
	}
	if got := waitDone(t, front.URL, v.ID); got.State != "done" {
		t.Fatalf("post-restart job ended %q", got.State)
	}

	cancel()
	select {
	case <-supDone:
	case <-time.After(10 * time.Second):
		t.Fatal("supervisor did not exit after cancel")
	}
}

// Cancelling Run is the fleet's graceful stop: each durable child must
// drain as a standalone clusterd does on SIGTERM and end its journal
// with the clean-shutdown marker, so recovery re-runs nothing.
func TestSupervisorCancelDrainsShards(t *testing.T) {
	bin := buildClusterd(t)
	path := filepath.Join(t.TempDir(), "s0.wal")
	coord, err := NewCoordinator(CoordinatorConfig{VirtualNodes: 8}, []Shard{{Name: "s0", JournalPath: path}})
	if err != nil {
		t.Fatal(err)
	}
	sup := NewSupervisor(SupervisorConfig{
		Bin:      bin,
		BaseArgs: []string{"-workers", "1"},
		Stdout:   io.Discard,
		Stderr:   io.Discard,
	}, coord)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	supDone := make(chan error, 1)
	go func() { supDone <- sup.Run(ctx) }()
	waitLive(t, coord, "s0", true)

	front := httptest.NewServer(coord)
	defer front.Close()
	v, resp := postJob(t, front.URL, netSpec(0))
	if resp.StatusCode != 200 && resp.StatusCode != 202 {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if got := waitDone(t, front.URL, v.ID); got.State != "done" {
		t.Fatalf("job ended %q", got.State)
	}

	cancel()
	select {
	case <-supDone:
	case <-time.After(20 * time.Second):
		t.Fatal("supervisor did not exit after cancel")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := journal.Decode(data)
	if err != nil || len(recs) == 0 {
		t.Fatalf("journal: %d record(s), %v", len(recs), err)
	}
	if last := recs[len(recs)-1]; last.Type != journal.TypeShutdown {
		t.Fatalf("journal ends in %q, want the %q marker of a drained shard", last.Type, journal.TypeShutdown)
	}
}
