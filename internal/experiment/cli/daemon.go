package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"clustereval/internal/experiment"
	"clustereval/internal/service"
)

// DaemonOptions is clusterd's validated CLI configuration.
type DaemonOptions struct {
	Addr         string
	Journal      string
	ReplicaDir   string
	Shard        string
	DrainTimeout time.Duration

	Workers    int
	Queue      int
	Cache      int
	JobTimeout time.Duration
	Retries    int
	Backoff    time.Duration

	ShedThreshold     float64
	BreakerThreshold  float64
	BreakerMinSamples int
	BreakerCooldown   time.Duration

	// ListKinds makes the binary print the experiment registry and exit
	// instead of serving.
	ListKinds bool
}

// ParseDaemonFlags parses args (without the program name) into options.
// It validates everything a typo can break and returns an error instead
// of letting the daemon come up silently misconfigured.
func ParseDaemonFlags(args []string) (DaemonOptions, error) {
	var o DaemonOptions
	fs := flag.NewFlagSet("clusterd", flag.ContinueOnError)
	fs.StringVar(&o.Addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.Journal, "journal", "", "write-ahead journal path (empty disables durability)")
	fs.StringVar(&o.ReplicaDir, "replica-dir", "", "directory for follower replicas of other shards' journals (requires -journal; set by clusterfleet)")
	fs.StringVar(&o.Shard, "shard", "", "fleet shard identity (set by clusterfleet; reported on /v1/healthz)")
	fs.DurationVar(&o.DrainTimeout, "drain-timeout", 30*time.Second, "how long a graceful drain may run before in-flight jobs are cancelled")
	fs.IntVar(&o.Workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&o.Queue, "queue", 256, "job queue depth")
	fs.IntVar(&o.Cache, "cache", 1024, "result cache entries (negative disables)")
	fs.DurationVar(&o.JobTimeout, "job-timeout", 2*time.Minute, "per-job execution timeout")
	fs.IntVar(&o.Retries, "retries", 2, "max re-executions of a job failing with a retryable fault (0 disables)")
	fs.DurationVar(&o.Backoff, "retry-backoff", 50*time.Millisecond, "base retry backoff, doubled per attempt (0 means no delay)")
	fs.Float64Var(&o.ShedThreshold, "shed-threshold", 0.9, "queue saturation in (0,1] at which submissions are load-shed with 429")
	fs.Float64Var(&o.BreakerThreshold, "breaker-threshold", 0.5, "recent failure rate in (0,1] at which the circuit breaker opens")
	fs.IntVar(&o.BreakerMinSamples, "breaker-min-samples", 16, "outcomes the failure window must hold before the breaker may open")
	fs.DurationVar(&o.BreakerCooldown, "breaker-cooldown", 5*time.Second, "how long the breaker stays open before a half-open probe")
	fs.BoolVar(&o.ListKinds, "list-kinds", false, "print the experiment kinds the daemon serves, with their parameter schemas, and exit")
	if err := fs.Parse(args); err != nil {
		return DaemonOptions{}, err
	}
	if err := o.validate(); err != nil {
		return DaemonOptions{}, err
	}
	return o, nil
}

// validate rejects configurations that would otherwise misbehave
// silently (a negative backoff quietly meaning "none", a shed threshold
// of 0 rejecting every job).
func (o DaemonOptions) validate() error {
	if o.Retries < 0 {
		return fmt.Errorf("-retries must be >= 0 (0 disables retries), got %d", o.Retries)
	}
	if o.Backoff < 0 {
		return fmt.Errorf("-retry-backoff must be >= 0 (0 means no delay), got %v", o.Backoff)
	}
	if o.DrainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be positive, got %v", o.DrainTimeout)
	}
	if o.JobTimeout <= 0 {
		return fmt.Errorf("-job-timeout must be positive, got %v", o.JobTimeout)
	}
	if o.Queue <= 0 {
		return fmt.Errorf("-queue must be positive, got %d", o.Queue)
	}
	if o.Workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", o.Workers)
	}
	if o.ShedThreshold <= 0 || o.ShedThreshold > 1 {
		return fmt.Errorf("-shed-threshold must be in (0, 1], got %g", o.ShedThreshold)
	}
	if o.BreakerThreshold <= 0 || o.BreakerThreshold > 1 {
		return fmt.Errorf("-breaker-threshold must be in (0, 1], got %g", o.BreakerThreshold)
	}
	if o.BreakerMinSamples <= 0 {
		return fmt.Errorf("-breaker-min-samples must be positive, got %d", o.BreakerMinSamples)
	}
	if o.BreakerCooldown <= 0 {
		return fmt.Errorf("-breaker-cooldown must be positive, got %v", o.BreakerCooldown)
	}
	if o.ReplicaDir != "" && o.Journal == "" {
		return errors.New("-replica-dir requires -journal: a shard holding replicas for others must be durable itself")
	}
	return nil
}

// Config maps the CLI options onto the service configuration. The CLI
// uses 0 for "disabled" where the library uses negative values (its 0
// means "default"), so the translation happens here.
func (o DaemonOptions) Config() service.Config {
	cfg := service.Config{
		ShardName:         o.Shard,
		ReplicaDir:        o.ReplicaDir,
		Workers:           o.Workers,
		QueueDepth:        o.Queue,
		CacheSize:         o.Cache,
		JobTimeout:        o.JobTimeout,
		MaxRetries:        o.Retries,
		RetryBackoff:      o.Backoff,
		ShedThreshold:     o.ShedThreshold,
		BreakerThreshold:  o.BreakerThreshold,
		BreakerMinSamples: o.BreakerMinSamples,
		BreakerCooldown:   o.BreakerCooldown,
	}
	if o.Retries == 0 {
		cfg.MaxRetries = -1
	}
	if o.Backoff == 0 {
		cfg.RetryBackoff = -1
	}
	return cfg
}

// ListKinds prints the experiment registry's menu to w: one block per
// kind — name, paper figure, title — followed by the kind's parameter
// schema and, at the end, the shared fields every kind accepts. It is the
// offline twin of the daemon's GET /v1/kinds.
func ListKinds(w io.Writer) error {
	for _, d := range experiment.Definitions() {
		if _, err := fmt.Fprintf(w, "%-14s %-10s %s\n", d.Kind, d.Figure, d.Title); err != nil {
			return err
		}
		for _, f := range d.Fields {
			if err := printField(w, f); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintln(w, "shared fields (every kind):"); err != nil {
		return err
	}
	for _, f := range experiment.SharedFields() {
		if err := printField(w, f); err != nil {
			return err
		}
	}
	return nil
}

func printField(w io.Writer, f experiment.Field) error {
	usage := fieldUsage(f)
	if f.Default != "" {
		usage += " [default " + f.Default + "]"
	}
	_, err := fmt.Fprintf(w, "    %-12s %-7s %s\n", f.Name, f.Type, usage)
	return err
}

// fieldUsage is a schema field's one-line help, with its closed domain
// when it has one.
func fieldUsage(f experiment.Field) string {
	if len(f.Enum) == 0 {
		return f.Usage
	}
	return f.Usage + " (" + strings.Join(f.Enum, " | ") + ")"
}

// Daemon starts the evaluation service and HTTP server, blocks until ctx
// is cancelled, then drains gracefully. onReady, when non-nil, receives
// the bound address once the listener is up (tests use it to learn the
// port).
func Daemon(ctx context.Context, opts DaemonOptions, onReady func(net.Addr)) error {
	var svc *service.Service
	var err error
	if opts.Journal != "" {
		svc, err = service.OpenDurable(opts.Config(), opts.Journal)
		if err != nil {
			return err
		}
	} else {
		svc = service.New(opts.Config())
	}
	srv := &http.Server{Handler: service.NewServer(svc)}

	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		_ = svc.Close(context.Background())
		return err
	}
	shardTag := ""
	if opts.Shard != "" {
		shardTag = ", shard " + opts.Shard
	}
	fmt.Printf("clusterd listening on %s (%d workers, queue %d, cache %d%s)\n",
		ln.Addr(), svc.Workers(), opts.Queue, opts.Cache, shardTag)
	if opts.Journal != "" {
		fmt.Printf("clusterd: journal %s, %d job(s) recovered\n", opts.Journal, svc.RecoveredJobs())
	}
	if onReady != nil {
		onReady(ln.Addr())
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		// Listener failed outright; still tear the pool down.
		_ = svc.Close(context.Background())
		return err
	case <-ctx.Done():
	}

	fmt.Println("clusterd: draining...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), opts.DrainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := svc.Close(shutdownCtx); err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println("clusterd: bye")
	return nil
}
