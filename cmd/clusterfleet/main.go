// Command clusterfleet runs a sharded clusterd fleet behind one
// consistent-hash coordinator: it spawns N clusterd children (one journal
// each), routes POST /v1/jobs to the shard owning the spec's canonical
// cache key, merges every shard's /v1/metrics and /v1/healthz into
// fleet-wide views, and supervises the children grendel-style — serve,
// watch, restart with exponential backoff.
//
// Usage:
//
//	clusterfleet -bin ./clusterd [-addr :8090] [-shards 3] [-data fleet-data]
//	             [-vnodes 64] [-workers 0] [-queue 256] [-cache 1024]
//	             [-max-restarts 5] [-restart-backoff 100ms] [-probe-interval 250ms]
//	             [-replicas 1] [-ack-quorum 0]
//
// Shard sN journals to <data>/sN.wal. A child that dies is restarted with
// the same journal, so the shard's own crash recovery re-runs its
// in-flight jobs and exactly-once semantics hold across restarts. A child
// that burns through -max-restarts consecutive fast failures is declared
// permanently dead: its key range flows to the ring successors and the
// unfinished jobs in its journal are re-enqueued onto the survivors.
//
// -replicas R > 1 turns on journal replication: each shard moves to its
// own directory (<data>/sN/journal.wal) and streams its journal to its
// R-1 ring-successor followers, which keep the copies alongside their own
// journals (<data>/sN/replica-sM.wal). A submit is acknowledged only
// after -ack-quorum of the R copies fsynced (0 means a majority). If a
// shard's journal directory is destroyed outright, the supervisor
// promotes the deepest follower replica back into a primary journal and
// respawns the child over it — nothing a quorum acknowledged is lost.
//
// The coordinator's own API adds GET /v1/fleet (topology: shards, PIDs,
// liveness, rerouted jobs) next to the clusterd surface it proxies.
// SIGINT/SIGTERM stop the listener and drain the children: each shard
// gets SIGTERM, drains as a standalone clusterd does and ends its journal
// with the clean-shutdown marker; one still running 35 s later is killed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"clustereval/internal/fleet"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "clusterfleet:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("clusterfleet", flag.ContinueOnError)
	addr := fs.String("addr", ":8090", "coordinator listen address")
	bin := fs.String("bin", "", "clusterd binary to spawn (required)")
	shards := fs.Int("shards", 3, "number of clusterd shards")
	data := fs.String("data", "fleet-data", "directory for the shards' write-ahead journals")
	vnodes := fs.Int("vnodes", 64, "virtual nodes per shard on the hash ring")
	workers := fs.Int("workers", 0, "worker pool size per shard (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 256, "job queue depth per shard")
	cache := fs.Int("cache", 1024, "result cache entries per shard")
	maxRestarts := fs.Int("max-restarts", 5, "consecutive fast failures before a shard is declared dead")
	restartBackoff := fs.Duration("restart-backoff", 100*time.Millisecond, "first respawn delay, doubled per failure")
	probeInterval := fs.Duration("probe-interval", 250*time.Millisecond, "shard health-probe period")
	replicas := fs.Int("replicas", 1, "copies of each shard's journal across the fleet (1 disables replication)")
	ackQuorum := fs.Int("ack-quorum", 0, "journal copies that must fsync before a submit is acknowledged (0 = majority of -replicas)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *bin == "" {
		return fmt.Errorf("-bin is required (path to the clusterd binary)")
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", *shards)
	}
	if *replicas < 1 {
		return fmt.Errorf("-replicas must be >= 1, got %d", *replicas)
	}
	if *replicas > *shards {
		return fmt.Errorf("-replicas %d needs at least that many shards, got %d", *replicas, *shards)
	}
	if *ackQuorum < 0 || *ackQuorum > *replicas {
		return fmt.Errorf("-ack-quorum must be in [0, %d] (0 = majority), got %d", *replicas, *ackQuorum)
	}
	if err := os.MkdirAll(*data, 0o755); err != nil {
		return fmt.Errorf("journal dir: %w", err)
	}

	decls := make([]fleet.Shard, *shards)
	for i := range decls {
		name := "s" + strconv.Itoa(i)
		if *replicas > 1 {
			// Replicated layout: each shard owns a directory holding its
			// journal and the replicas it follows for other shards, so
			// "losing a disk" is one rm -rf away from being tested.
			dir := filepath.Join(*data, name)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return fmt.Errorf("shard dir: %w", err)
			}
			decls[i] = fleet.Shard{
				Name:        name,
				DataDir:     dir,
				JournalPath: filepath.Join(dir, "journal.wal"),
			}
			continue
		}
		decls[i] = fleet.Shard{
			Name:        name,
			JournalPath: filepath.Join(*data, name+".wal"),
		}
	}
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		VirtualNodes:  *vnodes,
		ProbeInterval: *probeInterval,
		Replicas:      *replicas,
		AckQuorum:     *ackQuorum,
	}, decls)
	if err != nil {
		return err
	}
	sup := fleet.NewSupervisor(fleet.SupervisorConfig{
		Bin: *bin,
		BaseArgs: []string{
			"-workers", strconv.Itoa(*workers),
			"-queue", strconv.Itoa(*queue),
			"-cache", strconv.Itoa(*cache),
		},
		RestartBackoff: *restartBackoff,
		MaxRestarts:    *maxRestarts,
	}, coord)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	replTag := ""
	if *replicas > 1 {
		q := *ackQuorum
		if q == 0 {
			q = *replicas/2 + 1
		}
		replTag = fmt.Sprintf(", replicas %d quorum %d", *replicas, q)
	}
	fmt.Printf("clusterfleet listening on %s (%d shards, bin %s, journals %s%s)\n",
		ln.Addr(), *shards, *bin, *data, replTag)

	supDone := make(chan error, 1)
	go func() { supDone <- sup.Run(ctx) }()
	go coord.Run(ctx)

	srv := &http.Server{Handler: coord}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		stop()
		<-supDone
		return err
	case <-ctx.Done():
	}

	fmt.Println("clusterfleet: shutting down...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	// Children drain on ctx cancellation; wait for the supervisor loops
	// to report them gone. A permanently-dead shard surfaces here
	// too, but on the way out it is informational, not fatal.
	if err := <-supDone; err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "clusterfleet: supervisor:", err)
	}
	fmt.Println("clusterfleet: bye")
	return nil
}
