package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func logf(sc scenario, format string, args ...any) {
	fmt.Printf("acceptance: "+sc.name+": "+format+"\n", args...)
}

// survive starts the row's daemon, submits its workload, and calls
// inject once killAt jobs are terminal. It returns the daemon serving
// after the fault, the job IDs once every job is terminal again, and the
// time the fault was injected.
func (h *harness) survive(sc scenario, fault string, inject func(*daemon, []string) (*daemon, error)) (*daemon, []string, time.Time, error) {
	d, err := h.start(sc)
	if err != nil {
		return nil, nil, time.Time{}, err
	}
	if sc.daemon[0] == "clusterfleet" {
		if err := h.waitHealth(d.url, 3, false, 30*time.Second, 50*time.Millisecond); err != nil {
			return nil, nil, time.Time{}, err
		}
	}
	ids, err := h.submitAll(d.url, sc)
	if err != nil {
		return nil, nil, time.Time{}, err
	}
	logf(sc, "%d jobs acknowledged", len(ids))
	// The fault lands while the journals hold both terminal jobs, which
	// must rehydrate, and in-flight ones, which must re-run exactly once.
	if err := h.waitTerminal(d.url, ids, sc.killAt, sc.before, sc.poll); err != nil {
		return nil, nil, time.Time{}, fmt.Errorf("before %s: %w", fault, err)
	}
	faultAt := time.Now()
	if d, err = inject(d, ids); err != nil {
		return nil, nil, time.Time{}, err
	}
	if err := h.waitTerminal(d.url, ids, len(ids), sc.settle, sc.poll); err != nil {
		return nil, nil, time.Time{}, fmt.Errorf("after %s: %w", fault, err)
	}
	return d, ids, faultAt, nil
}

// killShard SIGKILLs the shard pickShard chooses for ids and returns its
// name. With wipe set, the shard's disk dies first: rm -rf takes its
// journal and every replica it held for the other shards.
func (h *harness) killShard(sc scenario, url string, ids []string, wipe bool) (string, error) {
	victim, pid, err := pickShard(url, ids)
	if err != nil {
		return "", err
	}
	if wipe {
		if err := os.RemoveAll(filepath.Join(h.data(sc), victim)); err != nil {
			return "", fmt.Errorf("destroying shard %s data dir: %w", victim, err)
		}
	}
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		return "", fmt.Errorf("killing shard %s (pid %d): %w", victim, pid, err)
	}
	logf(sc, "shard %s (pid %d) killed", victim, pid)
	return victim, nil
}

// crash SIGKILLs a journaled clusterd mid-workload, restarts it on the
// same journal, and requires every job back, done and marked recovered,
// and a clean drain afterwards.
func crash(h *harness, sc scenario) error {
	d, ids, faultAt, err := h.survive(sc, "the crash", func(d *daemon, _ []string) (*daemon, error) {
		if err := d.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no marker
			return nil, fmt.Errorf("killing daemon: %w", err)
		}
		_ = d.cmd.Wait()
		logf(sc, "daemon killed mid-workload")
		return h.start(sc)
	})
	if err != nil {
		return err
	}
	recovered, err := finalCheck(d.url, ids, "the crash")
	if err != nil {
		return err
	}
	if recovered != len(ids) {
		return fmt.Errorf("%d/%d jobs marked recovered after restart", recovered, len(ids))
	}
	if err := requireRerun(sc, d.url, ids, faultAt, "the crash"); err != nil {
		return err
	}
	metrics, err := get(d.url + "/v1/metrics")
	if err != nil {
		return err
	}
	if !strings.Contains(metrics, fmt.Sprintf("clusterd_recovered_jobs_total %d", len(ids))) {
		return fmt.Errorf("metrics do not report %d recovered jobs", len(ids))
	}
	// A graceful stop must still work on the recovered journal.
	return d.stop()
}

// fleet SIGKILLs the busiest shard of a three-shard fleet mid-workload:
// the supervisor must restart it on the same journal, with every job
// done under its original fleet ID. It then restarts the whole fleet on
// the same journals, which exercises the prefix routing that keeps fleet
// IDs resolvable without coordinator state. Last, it SIGKILLs the
// coordinator alone, and every shard must die with it.
func fleet(h *harness, sc scenario) error {
	var victim string
	d, ids, faultAt, err := h.survive(sc, "the shard kill", func(d *daemon, ids []string) (*daemon, error) {
		var err error
		victim, err = h.killShard(sc, d.url, ids, false)
		return d, err
	})
	if err != nil {
		return err
	}
	if _, err := finalCheck(d.url, ids, "the shard kill"); err != nil {
		return err
	}
	// Only the victim's jobs are marked recovered at this point.
	if err := requireRerun(sc, d.url, ids, faultAt, "the shard kill"); err != nil {
		return err
	}
	metrics, err := get(d.url + "/v1/metrics")
	if err != nil {
		return err
	}
	if strings.Contains(metrics, "fleet_shard_restarts_total 0\n") {
		return fmt.Errorf("supervisor reported no restarts after the kill")
	}
	if !strings.Contains(metrics, `clusterd_jobs_submitted_total{shard="`+victim+`"}`) {
		return fmt.Errorf("restarted shard %s missing from the merged exposition", victim)
	}

	if err := d.stop(); err != nil {
		return err
	}
	if d, err = h.start(sc); err != nil {
		return fmt.Errorf("restarting fleet: %w", err)
	}
	if err := h.waitHealth(d.url, 3, false, 30*time.Second, 50*time.Millisecond); err != nil {
		return fmt.Errorf("after fleet restart: %w", err)
	}
	if err := h.waitTerminal(d.url, ids, len(ids), 120*time.Second, sc.poll); err != nil {
		return fmt.Errorf("after fleet restart: %w", err)
	}
	if _, err := finalCheck(d.url, ids, "the fleet restart"); err != nil {
		return err
	}
	if err := h.fresh(d.url, `{"kind":"net","size_bytes":2048,"iters":5,"dst_node":7}`, sc); err != nil {
		return fmt.Errorf("after fleet restart: %w", err)
	}
	return h.killCoordinator(sc, d)
}

// disk destroys the busiest shard of a replicated fleet outright. The
// supervisor must promote a follower's replica and revive the shard:
// every acknowledged job done under its original fleet ID, a promotion
// recorded, a job that was in flight at the loss re-run from the promoted
// journal, jobs recovered on the victim, health back to ok, and fresh
// work completing.
func disk(h *harness, sc scenario) error {
	var victim string
	d, ids, faultAt, err := h.survive(sc, "the disk loss", func(d *daemon, ids []string) (*daemon, error) {
		var err error
		victim, err = h.killShard(sc, d.url, ids, true)
		return d, err
	})
	if err != nil {
		return err
	}
	if _, err := finalCheck(d.url, ids, "the disk loss"); err != nil {
		return err
	}
	var topo topology
	if err := getJSON(d.url+"/v1/fleet", &topo); err != nil {
		return err
	}
	if topo.Promotions < 1 {
		return fmt.Errorf("fleet reports %d promotions; the victim came back without its replica", topo.Promotions)
	}
	if err := requireRerun(sc, d.url, ids, faultAt, "the disk loss"); err != nil {
		return err
	}
	if err := h.waitHealth(d.url, 3, false, 60*time.Second, 50*time.Millisecond); err != nil {
		return fmt.Errorf("victim never revived: %w", err)
	}
	metrics, err := get(d.url + "/v1/metrics")
	if err != nil {
		return err
	}
	needle := `clusterd_recovered_jobs_total{shard="` + victim + `"}`
	if !strings.Contains(metrics, needle) || strings.Contains(metrics, needle+" 0\n") {
		return fmt.Errorf("revived shard %s recovered no jobs from its promoted journal", victim)
	}
	if err := h.waitHealth(d.url, 0, true, 60*time.Second, 100*time.Millisecond); err != nil {
		return err
	}
	if err := h.fresh(d.url, `{"kind":"net","size_bytes":2048,"iters":3,"dst_node":7}`, sc); err != nil {
		return fmt.Errorf("after failover: %w", err)
	}
	return d.stop()
}

// load drives loadgen phases at a three-shard fleet: a clean sustained
// phase, then the same load while the first live shard is SIGKILLed.
// Both must meet the row's SLOs with zero lost jobs. The full row then
// runs a clean cooldown wave and requires health back to ok and the
// merged exposition to account for every shard.
func load(h *harness, sc scenario) error {
	bin, err := h.binary("loadgen", sc.race)
	if err != nil {
		return err
	}
	d, err := h.start(sc)
	if err != nil {
		return err
	}
	if err := h.waitHealth(d.url, 3, true, 30*time.Second, 100*time.Millisecond); err != nil {
		return err
	}
	// Mixed kinds over a bounded spec pool (cache hits once primed), a
	// fault tranche every 25th submission, and deadline-bearing jobs.
	phase := func(seed int) []string {
		return append([]string{"-jobs", fmt.Sprint(sc.jobs), "-seed", fmt.Sprint(seed),
			"-fault-every", "25", "-deadline-every", "5", "-deadline-ms", "600000"}, sc.slo...)
	}

	logf(sc, "phase 1 — sustained mixed load")
	rep1, err := h.loadgen(bin, d.url, phase(1), nil)
	if err != nil {
		return fmt.Errorf("phase 1: %w", err)
	}
	if rep1.FaultJobs == 0 {
		return fmt.Errorf("phase 1 submitted no fault jobs")
	}
	if rep1.Failed+rep1.Shed == 0 {
		return fmt.Errorf("phase 1 fault tranche produced neither failures nor breaker sheds")
	}
	if rep1.Cached == 0 {
		return fmt.Errorf("phase 1 saw no cache hits")
	}

	// The killed shard's journal recovery and the coordinator's failover
	// must absorb the crash without losing a job.
	logf(sc, "phase 2 — chaos: SIGKILL one shard mid-workload")
	rep2, err := h.loadgen(bin, d.url, phase(2), func() error {
		if err := h.sleep(2 * time.Second); err != nil {
			return err
		}
		_, err := h.killShard(sc, d.url, nil, false)
		return err
	})
	if err != nil {
		return fmt.Errorf("phase 2: %w", err)
	}
	if rep2.Lost != 0 {
		return fmt.Errorf("phase 2 lost %d jobs across the shard kill", rep2.Lost)
	}

	if sc.cooldown != nil {
		// The fault tranche leaves one shard's failure window above the
		// /healthz degradation threshold with no traffic to dilute it; a
		// fault-free, mostly-unique wave must bring the fleet back to ok
		// rather than leave it pinned degraded.
		logf(sc, "phase 3 — clean cooldown wave")
		if _, err := h.loadgen(bin, d.url, sc.cooldown, nil); err != nil {
			return fmt.Errorf("phase 3: %w", err)
		}
		if err := h.waitHealth(d.url, 3, true, 60*time.Second, 100*time.Millisecond); err != nil {
			return fmt.Errorf("fleet did not recover after chaos: %w", err)
		}
		metrics, err := get(d.url + "/v1/metrics")
		if err != nil {
			return err
		}
		for _, want := range []string{
			"fleet_forwarded_total ",
			"fleet_clusterd_jobs_submitted_total ",
			`clusterd_jobs_submitted_total{shard="s0"}`,
			`clusterd_jobs_submitted_total{shard="s1"}`,
			`clusterd_jobs_submitted_total{shard="s2"}`,
		} {
			if !strings.Contains(metrics, want) {
				return fmt.Errorf("merged exposition missing %q", want)
			}
		}
		if strings.Contains(metrics, "fleet_shard_restarts_total 0\n") {
			return fmt.Errorf("supervisor reported no restarts after the chaos kill")
		}
	}
	return d.stop()
}
