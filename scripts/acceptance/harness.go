package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// harness owns one invocation: its scratch directory, the binaries built
// into it, and every process it starts.
type harness struct {
	ctx   context.Context // cancelled by SIGINT or SIGTERM to the harness
	dir   string
	built map[string]bool // binary paths already built
	procs []*exec.Cmd
}

// binary builds ./cmd/<name> once per invocation, instrumented when race
// is set, and returns its path.
func (h *harness) binary(name string, race bool) (string, error) {
	args := []string{"build"}
	bin := filepath.Join(h.dir, "bin", name)
	if race {
		args = append(args, "-race")
		bin = filepath.Join(h.dir, "race", name)
	}
	if h.built[bin] {
		return bin, nil
	}
	out, err := exec.CommandContext(h.ctx, "go", append(args, "-o", bin, "./cmd/"+name)...).CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("building %s: %v\n%s", name, err, out)
	}
	h.built[bin] = true
	return bin, nil
}

// command prepares a process that leads its own process group, so one
// signal reaches it and everything it spawns: an interrupt of the
// harness SIGKILLs the group, and close SIGKILLs any group still running.
func (h *harness) command(bin string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(h.ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return killGroup(cmd) }
	cmd.Stderr = os.Stderr
	h.procs = append(h.procs, cmd)
	return cmd
}

// killGroup SIGKILLs cmd's process group: a fleet coordinator and its
// shards alike.
func killGroup(cmd *exec.Cmd) error {
	return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
}

// close kills every process group whose leader was never reaped and
// waits for the group to empty, so a failed run leaves no daemon behind,
// then removes the scratch directory.
func (h *harness) close() {
	for _, cmd := range h.procs {
		if cmd.Process == nil || cmd.ProcessState != nil {
			continue
		}
		_ = killGroup(cmd)
		_ = cmd.Wait()
		// The shards outlive their leader until init reaps them.
		for end := time.Now().Add(10 * time.Second); time.Now().Before(end) && syscall.Kill(-cmd.Process.Pid, 0) == nil; {
			time.Sleep(10 * time.Millisecond)
		}
	}
	_ = os.RemoveAll(h.dir)
}

// data is the scenario's data directory: a journal, or a fleet's shard
// directories. Restarts reuse it.
func (h *harness) data(sc scenario) string { return filepath.Join(h.dir, sc.name) }

// daemon is a started clusterd or clusterfleet.
type daemon struct {
	name string
	cmd  *exec.Cmd
	url  string
}

// start launches the row's daemon on an ephemeral port against the
// scenario's data directory, echoes its output, and returns once the
// "<name> listening on <addr>" banner names the address.
func (h *harness) start(sc scenario) (*daemon, error) {
	name := sc.daemon[0]
	bin, err := h.binary(name, sc.race)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:0"}, sc.daemon[1:]...)
	if name == "clusterfleet" {
		clusterd, err := h.binary("clusterd", sc.race)
		if err != nil {
			return nil, err
		}
		args = append(args, "-bin", clusterd, "-data", h.data(sc))
	} else {
		if err := os.MkdirAll(h.data(sc), 0o755); err != nil {
			return nil, err
		}
		args = append(args, "-journal", filepath.Join(h.data(sc), "journal.wal"))
	}
	cmd := h.command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}

	addrCh := make(chan string, 1)
	go func() {
		lines := bufio.NewScanner(stdout)
		for lines.Scan() {
			line := lines.Text()
			fmt.Println("  |", line)
			if rest, ok := strings.CutPrefix(line, name+" listening on "); ok {
				if i := strings.IndexByte(rest, ' '); i > 0 {
					select {
					case addrCh <- rest[:i]:
					default:
					}
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &daemon{name: name, cmd: cmd, url: "http://" + addr}, nil
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("%s never announced its address", name)
	case <-h.ctx.Done():
		return nil, h.ctx.Err()
	}
}

// stop drains a daemon with SIGTERM to its leader alone, as an operator
// would stop it, and requires a clean exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := d.cmd.Wait(); err != nil {
		_ = killGroup(d.cmd)
		return fmt.Errorf("%s exited uncleanly: %w", d.name, err)
	}
	return nil
}

// killCoordinator SIGKILLs a fleet's coordinator alone, as an OOM kill
// would, and requires every shard it ran to be gone within 5 s: a shard
// left running would keep appending to a journal that a restarted fleet
// hands to a new shard. A zombie counts as gone.
func (h *harness) killCoordinator(sc scenario, d *daemon) error {
	var topo topology
	if err := getJSON(d.url+"/v1/fleet", &topo); err != nil {
		return err
	}
	var pids []int
	for _, s := range topo.Shards {
		if s.PID != 0 {
			pids = append(pids, s.PID)
		}
	}
	if len(pids) == 0 {
		return errors.New("the fleet reports no shard PID")
	}
	if err := d.cmd.Process.Kill(); err != nil {
		return err
	}
	_ = d.cmd.Wait()
	err := h.poll(5*time.Second, 20*time.Millisecond, func() error {
		for _, pid := range pids {
			if running(pid) {
				return fmt.Errorf("shard PID %d still running 5s after its coordinator was SIGKILLed", pid)
			}
		}
		return nil
	})
	if err != nil {
		_ = killGroup(d.cmd) // the survivors are still in the coordinator's group
		return err
	}
	logf(sc, "all %d shards died with their SIGKILLed coordinator", len(pids))
	return nil
}

// running reports whether pid names a process that has not exited: one
// whose /proc/<pid>/stat (Linux) exists and whose state is not Z (a
// zombie).
func running(pid int) bool {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	// The state follows the parenthesised command name, which may itself
	// hold parentheses.
	i := bytes.LastIndexByte(stat, ')')
	return i < 0 || i+2 >= len(stat) || stat[i+2] != 'Z'
}

// jobView mirrors the fields of service.JobView the scenarios assert on.
type jobView struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	Error     string          `json:"error"`
	Recovered bool            `json:"recovered"`
	StartedAt time.Time       `json:"started_at"`
	Result    json.RawMessage `json:"result"`
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "cancelled"
}

// sleep pauses for d unless the run is interrupted first.
func (h *harness) sleep(d time.Duration) error {
	select {
	case <-h.ctx.Done():
		return h.ctx.Err()
	case <-time.After(d):
		return nil
	}
}

// submit posts one spec. With attempts > 1 it retries the verdicts the
// durability contract declares retryable — 429 (shed), 503 (quorum
// miss, draining, rerouting) and transport errors — 25 ms apart. Any
// other status fails at once.
func (h *harness) submit(url, spec string, attempts int) (jobView, error) {
	var lastErr error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			if err := h.sleep(25 * time.Millisecond); err != nil {
				return jobView{}, err
			}
		}
		resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			lastErr = err
			continue
		}
		var v jobView
		derr := json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK, http.StatusAccepted:
			if derr != nil {
				return jobView{}, fmt.Errorf("decoding accepted submission: %w", derr)
			}
			return v, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			lastErr = fmt.Errorf("HTTP %d", resp.StatusCode)
		default:
			return jobView{}, fmt.Errorf("HTTP %d (non-retryable)", resp.StatusCode)
		}
	}
	return jobView{}, fmt.Errorf("gave up after %d attempt(s): %w", attempts, lastErr)
}

// submitAll submits the row's workload and returns the acknowledged
// IDs, each of which must be non-empty and unique.
func (h *harness) submitAll(url string, sc scenario) ([]string, error) {
	ids := make([]string, 0, sc.jobs)
	seen := map[string]bool{}
	for i := 0; i < sc.jobs; i++ {
		v, err := h.submit(url, sc.spec(i), sc.attempts)
		if err != nil {
			return nil, fmt.Errorf("submitting job %d: %w", i, err)
		}
		if v.ID == "" || seen[v.ID] {
			return nil, fmt.Errorf("job %d got duplicate or empty ID %q", i, v.ID)
		}
		seen[v.ID] = true
		ids = append(ids, v.ID)
	}
	return ids, nil
}

// poll retries check every interval until it returns nil, the run is
// interrupted, or timeout passes; then it returns check's last error.
func (h *harness) poll(timeout, interval time.Duration, check func() error) error {
	deadline := time.Now().Add(timeout)
	for {
		err := check()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		if err := h.sleep(interval); err != nil {
			return err
		}
	}
}

// waitTerminal polls until at least n of ids are terminal. A job whose
// GET fails — a shard answers 503 while its child restarts — counts as
// not terminal yet; finalCheck is the strict read.
func (h *harness) waitTerminal(url string, ids []string, n int, timeout, interval time.Duration) error {
	return h.poll(timeout, interval, func() error {
		done := 0
		for _, id := range ids {
			if v, err := getJob(url, id); err == nil && terminal(v.State) {
				done++
			}
		}
		if done < n {
			return fmt.Errorf("only %d/%d jobs terminal after %v", done, n, timeout)
		}
		return nil
	})
}

// finalCheck reads every job strictly: each must exist and be done with
// a result. It returns how many are marked recovered.
func finalCheck(url string, ids []string, fault string) (int, error) {
	recovered := 0
	for _, id := range ids {
		v, err := getJob(url, id)
		if err != nil {
			return 0, fmt.Errorf("job %s lost across %s: %w", id, fault, err)
		}
		if v.State != "done" || len(v.Result) == 0 {
			return 0, fmt.Errorf("job %s ended %q (%s) after %s, want done with a result", id, v.State, v.Error, fault)
		}
		if v.Recovered {
			recovered++
		}
	}
	return recovered, nil
}

// requireRerun checks that the fault landed mid-flight: at least one job
// is marked recovered and started after the fault, so recovery re-ran a
// victim instead of only rehydrating jobs that had already finished.
func requireRerun(sc scenario, url string, ids []string, faultAt time.Time, fault string) error {
	n := 0
	for _, id := range ids {
		v, err := getJob(url, id)
		if err != nil {
			return err
		}
		if v.Recovered && v.StartedAt.After(faultAt) {
			n++
		}
	}
	if n == 0 {
		return fmt.Errorf("no recovered job started after %s: every job was terminal before it landed, so no victim re-ran", fault)
	}
	logf(sc, "%d/%d jobs were in flight at %s and re-ran", n, len(ids), fault)
	return nil
}

// fresh submits one new job and waits for it to finish: a recovered
// daemon must still take work.
func (h *harness) fresh(url, spec string, sc scenario) error {
	v, err := h.submit(url, spec, sc.attempts)
	if err != nil {
		return fmt.Errorf("fresh submission: %w", err)
	}
	return h.waitTerminal(url, []string{v.ID}, 1, 30*time.Second, sc.poll)
}

// waitHealth polls the fleet's merged /v1/healthz until it reports at
// least live shards and, when wantOK is set, status "ok".
func (h *harness) waitHealth(url string, live int, wantOK bool, timeout, interval time.Duration) error {
	return h.poll(timeout, interval, func() error {
		var rep struct {
			Status     string `json:"status"`
			LiveShards int    `json:"live_shards"`
		}
		if err := getJSON(url+"/v1/healthz", &rep); err != nil {
			return err
		}
		if rep.LiveShards < live || (wantOK && rep.Status != "ok") {
			return fmt.Errorf("fleet %s with %d live shards after %v", rep.Status, rep.LiveShards, timeout)
		}
		return nil
	})
}

// topology is the part of /v1/fleet the scenarios read.
type topology struct {
	Shards []struct {
		Name string `json:"name"`
		Live bool   `json:"live"`
		PID  int    `json:"pid"`
	} `json:"shards"`
	Promotions int `json:"promotions_total"`
}

// pickShard names the live shard that owns the most of ids still in
// flight, with its child PID. Ties go to the first live shard in
// /v1/fleet order, so with no ids it is the first live shard.
func pickShard(url string, ids []string) (string, int, error) {
	inflight := map[string]int{}
	for _, id := range ids {
		if v, err := getJob(url, id); err == nil && !terminal(v.State) {
			if shard, _, ok := strings.Cut(id, "-"); ok {
				inflight[shard]++
			}
		}
	}
	var topo topology
	if err := getJSON(url+"/v1/fleet", &topo); err != nil {
		return "", 0, err
	}
	best, pid, most := "", 0, -1
	for _, s := range topo.Shards {
		if s.Live && s.PID != 0 && inflight[s.Name] > most {
			best, pid, most = s.Name, s.PID, inflight[s.Name]
		}
	}
	if best == "" {
		return "", 0, errors.New("no live shard with a PID to kill")
	}
	return best, pid, nil
}

func getJob(url, id string) (jobView, error) {
	var v jobView
	err := getJSON(url+"/v1/jobs/"+id, &v)
	return v, err
}

// get reads url's whole body and requires HTTP 200.
func get(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return string(body), err
}

func getJSON(url string, v any) error {
	body, err := get(url)
	if err != nil {
		return err
	}
	return json.Unmarshal([]byte(body), v)
}

// loadReport mirrors the loadgen JSON report fields the load scenario
// asserts on.
type loadReport struct {
	Jobs      int `json:"jobs"`
	Accepted  int `json:"accepted"`
	Cached    int `json:"cached"`
	Shed      int `json:"shed"`
	Failed    int `json:"failed"`
	FaultJobs int `json:"fault_jobs"`
	Lost      int `json:"lost"`
}

// loadgen runs one loadgen phase against url and parses its JSON report.
// chaos, when non-nil, runs alongside the load; its error fails the
// phase.
func (h *harness) loadgen(bin, url string, args []string, chaos func() error) (*loadReport, error) {
	cmd := h.command(bin, append([]string{"-url", url, "-json"}, args...)...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	chaosErr := make(chan error, 1)
	if chaos != nil {
		go func() { chaosErr <- chaos() }()
	} else {
		chaosErr <- nil
	}
	runErr := cmd.Wait()
	if err := <-chaosErr; err != nil {
		return nil, fmt.Errorf("chaos injection: %w", err)
	}
	if runErr != nil {
		return nil, fmt.Errorf("loadgen failed (SLO or harness): %w\n%s", runErr, stdout.String())
	}
	// loadgen prints a human "SLO satisfied" line after the JSON report;
	// decode only the first value.
	var rep loadReport
	if err := json.NewDecoder(&stdout).Decode(&rep); err != nil {
		return nil, fmt.Errorf("parsing loadgen report: %w\n%s", err, stdout.String())
	}
	fmt.Printf("acceptance: phase report: %d jobs, %d accepted, %d cached, %d shed, %d failed, %d lost\n",
		rep.Jobs, rep.Accepted, rep.Cached, rep.Shed, rep.Failed, rep.Lost)
	return &rep, nil
}
