package fleet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"clustereval/internal/xrand"
)

// SupervisorConfig shapes the spawn/watch/restart loop.
type SupervisorConfig struct {
	// Bin is the clusterd binary to spawn.
	Bin string
	// BaseArgs are flags every shard gets (workers, queue, breaker
	// tuning). The supervisor appends -addr, -journal and -shard itself.
	BaseArgs []string
	// RestartBackoff is the base respawn delay, doubled per consecutive
	// failure up to MaxBackoff and scaled by a deterministic per-shard
	// jitter (see restartBackoff); 0 means 100ms.
	RestartBackoff time.Duration
	// MaxBackoff caps the doubling; 0 means 5s.
	MaxBackoff time.Duration
	// MaxRestarts is how many consecutive fast failures a shard may
	// consume before it is declared permanently dead and its journal
	// handed off; 0 means 5. A shard that stays up past StableAfter
	// resets its budget.
	MaxRestarts int
	// StableAfter is how long a child must stay alive for its crash
	// counter to reset; 0 means 10s.
	StableAfter time.Duration
	// Stdout/Stderr receive the children's output (prefixed per shard);
	// nil means os.Stdout/os.Stderr.
	Stdout io.Writer
	Stderr io.Writer
}

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.RestartBackoff <= 0 {
		c.RestartBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 5
	}
	if c.StableAfter <= 0 {
		c.StableAfter = 10 * time.Second
	}
	if c.Stdout == nil {
		c.Stdout = os.Stdout
	}
	if c.Stderr == nil {
		c.Stderr = os.Stderr
	}
	return c
}

// Supervisor spawns one clusterd child per shard and keeps it alive,
// grendel-style: serve, watch the process, restart on exit with
// exponential backoff. Every lifecycle event is pushed into the
// coordinator — URL on banner, liveness on exit, permanent death (and
// journal handoff) once the restart budget is gone.
type Supervisor struct {
	cfg   SupervisorConfig
	coord *Coordinator

	mu   sync.Mutex
	pids map[string]int // live child PID per shard
}

// NewSupervisor wires a supervisor to the coordinator whose shards it
// will run. Each supervised shard must have been declared to the
// coordinator with its JournalPath.
func NewSupervisor(cfg SupervisorConfig, coord *Coordinator) *Supervisor {
	return &Supervisor{cfg: cfg.withDefaults(), coord: coord, pids: map[string]int{}}
}

// PID returns the named shard's current child PID (0 when not running).
func (s *Supervisor) PID(shard string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pids[shard]
}

// Run supervises every declared shard until ctx is cancelled. Cancelling
// drains the children: each gets SIGTERM, finishes within its own
// -drain-timeout and leaves a clean-shutdown marker in its journal, and
// one still running childDrainWait later is SIGKILLed. Run returns once
// every child is gone, with the first spawn-setup error or ctx.Err().
func (s *Supervisor) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	errCh := make(chan error, len(s.coord.allShards()))
	for _, st := range s.coord.allShards() {
		st.mu.Lock()
		shard := st.decl
		st.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.superviseShard(ctx, shard); err != nil && !errors.Is(err, context.Canceled) {
				errCh <- fmt.Errorf("fleet: shard %s: %w", shard.Name, err)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return err
	}
	return ctx.Err()
}

// restartBackoff computes the delay before restart attempt (1-based):
// RestartBackoff doubled per attempt, capped at MaxBackoff, then scaled
// by a jitter in [0.75, 1.25) drawn deterministically from the shard
// name and attempt number. The jitter keeps a fleet-wide crash from
// lining every shard's respawn (and its thundering re-announce) on the
// same instant, while staying a pure function of its inputs so tests
// can predict the exact schedule.
func restartBackoff(base, max time.Duration, shard string, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	scale := 0.75 + float64(xrand.MixN(hashPoint(shard, 0), uint64(attempt))%1024)/2048.0
	return time.Duration(float64(d) * scale)
}

// superviseShard is one shard's serve+watch loop.
func (s *Supervisor) superviseShard(ctx context.Context, shard Shard) error {
	restarts := 0
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		began := hostNow()
		err := s.runChildOnce(ctx, shard)
		s.coord.SetShardLive(shard.Name, false)
		s.mu.Lock()
		delete(s.pids, shard.Name)
		s.mu.Unlock()
		if ctx.Err() != nil {
			return ctx.Err()
		}

		// A child that served for a while earned a fresh budget; only
		// rapid crash loops burn through MaxRestarts.
		if hostSince(began) >= s.cfg.StableAfter {
			restarts = 0
		}

		// Disk loss looks different from a crash: the journal the child
		// was appending to is gone from under it. With replication on,
		// rebuild it from the best follower replica and grant a fresh
		// budget — the respawn replays the promoted journal under the
		// shard's own identity, losing nothing the quorum acknowledged.
		if s.coord.ReplicationEnabled() && shard.JournalPath != "" {
			if _, statErr := os.Stat(shard.JournalPath); errors.Is(statErr, os.ErrNotExist) {
				n, from, perr := s.coord.PromoteShard(shard.Name)
				switch {
				case perr == nil:
					fmt.Fprintf(s.cfg.Stderr, "fleet: shard %s lost its journal; promoted %d record(s) from follower %s\n",
						shard.Name, n, from)
					restarts = 0
				case errors.Is(perr, ErrNoReplica):
					// Nothing was ever replicated (or the journal never
					// existed): starting fresh is the correct recovery.
				default:
					fmt.Fprintf(s.cfg.Stderr, "fleet: shard %s replica promotion failed: %v\n", shard.Name, perr)
				}
			}
		}
		restarts++
		if restarts > s.cfg.MaxRestarts {
			fmt.Fprintf(s.cfg.Stderr, "fleet: shard %s exhausted %d restarts; declaring dead and handing off journal\n",
				shard.Name, s.cfg.MaxRestarts)
			moved, ferr := s.coord.FailShard(ctx, shard.Name)
			if ferr != nil {
				return fmt.Errorf("handoff after restart budget: %w (child exit: %v)", ferr, err)
			}
			fmt.Fprintf(s.cfg.Stderr, "fleet: shard %s journal handoff re-enqueued %d job(s)\n", shard.Name, moved)
			return fmt.Errorf("shard dead after %d restarts (last exit: %v)", s.cfg.MaxRestarts, err)
		}
		delay := restartBackoff(s.cfg.RestartBackoff, s.cfg.MaxBackoff, shard.Name, restarts)
		fmt.Fprintf(s.cfg.Stderr, "fleet: shard %s exited (%v); restart %d/%d in %v\n",
			shard.Name, err, restarts, s.cfg.MaxRestarts, delay)
		s.coord.NoteRestart(shard.Name, restarts)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-sleepCh(delay):
		}
	}
}

// childDrainWait is how long a child may drain after the SIGTERM a
// cancelled supervisor sends it before it is SIGKILLed: just above
// clusterd's default -drain-timeout of 30 s, so a draining shard writes
// its clean-shutdown marker and only a hung one is killed.
const childDrainWait = 35 * time.Second

// runChildOnce spawns one clusterd child for the shard, waits for its
// banner to learn the listen address, publishes it to the coordinator
// and blocks until the child exits (or ctx cancels, which drains it).
func (s *Supervisor) runChildOnce(ctx context.Context, shard Shard) error {
	args := append([]string{}, s.cfg.BaseArgs...)
	args = append(args, "-addr", "127.0.0.1:0", "-shard", shard.Name)
	if shard.JournalPath != "" {
		args = append(args, "-journal", shard.JournalPath)
	}
	if s.coord.ReplicationEnabled() && shard.DataDir != "" {
		args = append(args, "-replica-dir", shard.DataDir)
	}
	cmd := exec.CommandContext(ctx, s.cfg.Bin, args...)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = childDrainWait
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return fmt.Errorf("stdout pipe: %w", err)
	}
	cmd.Stderr = prefixWriter(s.cfg.Stderr, shard.Name)
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", s.cfg.Bin, err)
	}
	s.mu.Lock()
	s.pids[shard.Name] = cmd.Process.Pid
	s.mu.Unlock()
	s.coord.SetShardPID(shard.Name, cmd.Process.Pid)

	// Scan the banner for the bound address, then keep draining output.
	out := prefixWriter(s.cfg.Stdout, shard.Name)
	sc := bufio.NewScanner(stdout)
	announced := false
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(out, line)
		if announced {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "clusterd listening on "); ok {
			if i := strings.IndexByte(rest, ' '); i > 0 {
				addr := rest[:i]
				s.coord.SetShardURL(shard.Name, "http://"+addr)
				s.coord.SetShardLive(shard.Name, true)
				announced = true
				// Every announce changes this child's address, which
				// invalidates peer sets fleet-wide: re-point every live
				// primary at the current follower URLs.
				s.coord.SyncReplication(ctx)
			}
		}
	}
	return cmd.Wait()
}

// prefixWriter tags each child's output lines with its shard name.
func prefixWriter(w io.Writer, shard string) io.Writer {
	return &lineTagger{w: w, tag: "[" + shard + "] "}
}

type lineTagger struct {
	w   io.Writer
	tag string
	buf []byte
}

func (t *lineTagger) Write(p []byte) (int, error) {
	t.buf = append(t.buf, p...)
	for {
		i := strings.IndexByte(string(t.buf), '\n')
		if i < 0 {
			break
		}
		line := t.buf[:i+1]
		if _, err := io.WriteString(t.w, t.tag+string(line)); err != nil {
			return len(p), err
		}
		t.buf = t.buf[i+1:]
	}
	return len(p), nil
}
