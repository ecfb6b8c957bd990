// Package service implements clusterd's evaluation engine: a bounded job
// queue feeding a worker pool that replays the paper's simulations on
// demand, a content-addressed LRU cache over their (deterministic)
// results, and a Prometheus-text-format metrics registry. The HTTP layer
// in server.go is a thin translation onto this engine; cmd/clusterd wires
// it to a listener and signals.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"clustereval/internal/faultsim"
	"clustereval/internal/journal"
	"clustereval/internal/xrand"
)

// JobState is the lifecycle phase of a submitted job.
type JobState string

// The job lifecycle: queued -> running -> done | failed | cancelled.
// Cache hits are born done.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether no further transitions can happen.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull is returned when the bounded queue cannot accept the
	// job; clients should back off and retry.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrClosed is returned once the service has begun draining.
	ErrClosed = errors.New("service: shutting down")
	// ErrNotFound is returned for unknown job IDs.
	ErrNotFound = errors.New("service: no such job")
)

// OverloadError is returned when admission control rejects a submission
// before it reaches the queue — load shedding above the saturation
// threshold, or the circuit breaker refusing fault-carrying specs. The
// HTTP layer maps it to 429 with a Retry-After header from the hint.
type OverloadError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string { return "service: " + e.Reason }

// Config sizes the service.
type Config struct {
	// ShardName is this daemon's identity inside a clusterfleet ("s0");
	// empty for a standalone daemon. It is reported on /v1/healthz and in
	// the startup banner so fleet tooling can tie a process to its ring
	// position.
	ShardName string
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of jobs waiting to run; 0 means 256.
	QueueDepth int
	// CacheSize bounds the result cache entry count; 0 means 1024,
	// negative disables caching.
	CacheSize int
	// JobTimeout bounds one job's execution; 0 means 2 minutes.
	JobTimeout time.Duration
	// MaxJobs bounds the finished-job history kept for GET /v1/jobs;
	// 0 means 4096. Queued and running jobs are never evicted.
	MaxJobs int
	// MaxRetries bounds the extra attempts a job failing with a retryable
	// fault error (faultsim.Retryable) gets before it is declared
	// degraded; 0 means 2, negative disables retries.
	MaxRetries int
	// RetryBackoff is the base of the exponential backoff between
	// attempts (doubled per retry, scaled by a deterministic jitter drawn
	// from the job's spec hash); 0 means 50ms, negative means no delay.
	RetryBackoff time.Duration
	// ShedThreshold is the queue saturation in (0, 1] at or above which
	// new queue-bound submissions are load-shed with an *OverloadError
	// (cache hits are never shed — they consume no queue slot); 0 means
	// 0.9, and 1 sheds only when the queue is already full.
	ShedThreshold float64
	// BreakerThreshold is the recent failure rate at or above which the
	// circuit breaker opens for fault-carrying specs; 0 means 0.5.
	BreakerThreshold float64
	// BreakerMinSamples is the minimum number of outcomes the recent
	// window must hold before the breaker may open; 0 means 16.
	BreakerMinSamples int
	// BreakerCooldown is how long the breaker stays open before
	// admitting a half-open probe; 0 means 5s.
	BreakerCooldown time.Duration
	// ReplicaDir, when set on a durable daemon, opens a replica store in
	// that directory and serves the fleet's replication ingest endpoint:
	// this shard then holds follower copies of its ring neighbours'
	// journals. Requires a journal (OpenDurable).
	ReplicaDir string
	// ReplicationTimeout bounds one replication ship (including a
	// catch-up resend) to one peer; 0 means 2s.
	ReplicationTimeout time.Duration
	// runner overrides job execution in tests.
	runner func(context.Context, JobSpec) (*Result, error)
	// runnerAttempt overrides job execution in tests that exercise the
	// retry policy; it additionally receives the 0-based attempt number.
	runnerAttempt func(context.Context, JobSpec, int) (*Result, error)
	// clock supplies wall-clock timestamps (job lifecycle times, journal
	// record times, uptime). It defaults to time.Now; binding it here
	// keeps every wall-clock read in the service behind one injection
	// point, overridable in tests.
	clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.RetryBackoff < 0 {
		c.RetryBackoff = 0
	}
	if c.ShedThreshold <= 0 {
		c.ShedThreshold = 0.9
	}
	if c.ShedThreshold > 1 {
		c.ShedThreshold = 1
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 0.5
	}
	if c.BreakerMinSamples <= 0 {
		c.BreakerMinSamples = 16
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.ReplicationTimeout <= 0 {
		c.ReplicationTimeout = 2 * time.Second
	}
	if c.clock == nil {
		c.clock = time.Now
	}
	if c.runnerAttempt == nil {
		if c.runner != nil {
			fn := c.runner
			c.runnerAttempt = func(ctx context.Context, spec JobSpec, _ int) (*Result, error) {
				return fn(ctx, spec)
			}
		} else {
			c.runnerAttempt = RunAttempt
		}
	}
	return c
}

// Job is one submitted simulation with its lifecycle state. All mutable
// fields are guarded by mu; View snapshots them for the HTTP layer.
type Job struct {
	ID   string
	Spec JobSpec // normalised
	Key  string  // canonical spec hash (cache key)

	// submitted is the submission time, which also anchors the spec's
	// deadline; probe marks the job as the circuit breaker's half-open
	// probe; recovered marks a job replayed from the journal. All three
	// are set before the job is shared and immutable after.
	submitted time.Time
	probe     bool
	recovered bool

	// prev and next link the service's job history in submission order;
	// guarded by Service.mu.
	prev, next *Job

	mu     sync.Mutex
	state  JobState
	result *Result
	// resultJSON is result's bytes in the cache entry the job was served
	// from or stored into (cacheEntry.view); nil for any other result.
	resultJSON []byte
	errMsg     string
	attempts   int // execution attempts consumed (0 for cache hits)
	started    time.Time
	finished   time.Time
	cancelFn   context.CancelFunc // set while running
	// The flags sit together so Job stays within its allocation size class.
	cached     bool
	degraded   bool // failed with a fault error after exhausting retries
	cancelWant bool // cancel requested before the job started
}

// deadline is the absolute per-job deadline the spec's DeadlineMS sets,
// measured from submission; zero when the spec sets none. It is derived
// rather than stored, which keeps Job within its allocation size class.
func (j *Job) deadline() time.Time {
	if j.Spec.DeadlineMS <= 0 {
		return time.Time{}
	}
	return j.submitted.Add(time.Duration(j.Spec.DeadlineMS) * time.Millisecond)
}

// JobView is an immutable snapshot of a job, shaped for JSON.
type JobView struct {
	ID              string    `json:"id"`
	State           JobState  `json:"state"`
	Spec            JobSpec   `json:"spec"`
	SpecHash        string    `json:"spec_hash"`
	Cached          bool      `json:"cached"`
	Recovered       bool      `json:"recovered,omitempty"`
	Attempts        int       `json:"attempts,omitempty"`
	Degraded        bool      `json:"degraded,omitempty"`
	Error           string    `json:"error,omitempty"`
	Result          *Result   `json:"result,omitempty"`
	SubmittedAt     time.Time `json:"submitted_at"`
	StartedAt       time.Time `json:"started_at,omitzero"`
	FinishedAt      time.Time `json:"finished_at,omitzero"`
	DurationSeconds float64   `json:"duration_seconds,omitempty"`

	// resultJSON is Result as WriteJSON writes it in the view, when the
	// job shares a cache entry's bytes (see writeView); nil otherwise.
	resultJSON []byte
}

// View snapshots the job under its lock.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID: j.ID, State: j.state, Spec: j.Spec, SpecHash: j.Key,
		Cached: j.cached, Recovered: j.recovered,
		Attempts: j.attempts, Degraded: j.degraded,
		Error: j.errMsg, Result: j.result, resultJSON: j.resultJSON,
		SubmittedAt: j.submitted, StartedAt: j.started, FinishedAt: j.finished,
	}
	if !j.started.IsZero() && !j.finished.IsZero() {
		v.DurationSeconds = j.finished.Sub(j.started).Seconds()
	}
	return v
}

// Service is the running evaluation engine.
type Service struct {
	cfg   Config
	cache *resultCache
	queue chan *Job
	jnl   *journal.Journal      // nil without durability
	store *journal.ReplicaStore // nil unless this shard hosts replicas
	brk   *breaker

	// commitMu serializes the commit pipeline — local journal append,
	// sequence assignment, replication ship, quorum wait — so the frame
	// order every follower sees is exactly the journal's record order.
	commitMu   sync.Mutex
	journalSeq uint64 // records in the journal file; guarded by commitMu

	replMu sync.Mutex
	repl   *replicator // nil while replication is off

	mu     sync.Mutex
	closed bool
	jobs   map[string]*Job
	// head and tail end the job history, linked through Job.prev and
	// Job.next in submission order, for eviction and listing. A job is
	// on the list exactly while it is in jobs.
	head, tail *Job
	nextID     uint64

	wg        sync.WaitGroup
	baseCtx   context.Context
	cancelAll context.CancelFunc

	reg            *Registry
	submitted      *Counter
	completed      *Counter
	failed         *Counter
	cancelled      *Counter
	cacheHits      *Counter
	cacheMisses    *Counter
	queueRejected  *Counter
	retries        *Counter
	degraded       *Counter
	shed           *Counter
	journalRecords *Counter
	journalErrors  *Counter
	recovered      *Counter
	replShipped    *Counter
	replErrors     *Counter
	replIngested   *Counter
	replLag        *GaugeVec
	energyJoules   *CounterVec
	durations      *HistogramVec
	recent         *outcomeWindow
}

// outcomeWindow is a fixed-size ring of recent job outcomes backing the
// /healthz failure-rate signal and the clusterd_recent_failure_rate gauge.
type outcomeWindow struct {
	mu     sync.Mutex
	buf    []bool // true = failed
	next   int
	filled int
}

func newOutcomeWindow(size int) *outcomeWindow {
	return &outcomeWindow{buf: make([]bool, size)}
}

// record appends one outcome, evicting the oldest once the window is full.
func (w *outcomeWindow) record(failed bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf[w.next] = failed
	w.next = (w.next + 1) % len(w.buf)
	if w.filled < len(w.buf) {
		w.filled++
	}
}

// rate returns the fraction of failures among the recorded outcomes and
// how many outcomes back it (0, 0 before any job finishes).
func (w *outcomeWindow) rate() (float64, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.filled == 0 {
		return 0, 0
	}
	fails := 0
	for i := 0; i < w.filled; i++ {
		if w.buf[i] {
			fails++
		}
	}
	return float64(fails) / float64(w.filled), w.filled
}

// New builds the service and starts its worker pool. The service is not
// durable: queued and running jobs are lost on a crash. Use OpenDurable
// for a journal-backed service that survives one.
func New(cfg Config) *Service {
	s, pending := newService(cfg, nil, nil)
	s.start(pending)
	return s
}

// OpenDurable builds the service on top of the write-ahead journal at
// path. Existing records are replayed before the worker pool starts:
// terminal jobs rehydrate the registry (and done results the cache),
// unfinished jobs re-enqueue and run again — unless the journal ends
// with a clean-shutdown marker, in which case an unfinished job cannot
// be a crash victim and is closed out as cancelled instead of re-run.
// Every subsequent lifecycle transition is journaled and fsynced before
// it is acknowledged.
func OpenDurable(cfg Config, path string) (*Service, error) {
	jnl, recs, err := journal.Open(path)
	if err != nil {
		return nil, err
	}
	var store *journal.ReplicaStore
	if cfg.ReplicaDir != "" {
		store, err = journal.OpenReplicaStore(cfg.ReplicaDir)
		if err != nil {
			jnl.Close()
			return nil, err
		}
	}
	s, pending := newService(cfg, jnl, recs)
	s.store = store
	s.start(pending)
	return s, nil
}

// newService builds the service, replaying any journal records into the
// registry. It returns the jobs that must re-enqueue; start() runs them.
func newService(cfg Config, jnl *journal.Journal, recs []journal.Record) (*Service, []*Job) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:       cfg,
		cache:     newResultCache(cfg.CacheSize),
		queue:     make(chan *Job, cfg.QueueDepth),
		jnl:       jnl,
		brk:       newBreaker(cfg.BreakerThreshold, cfg.BreakerMinSamples, cfg.BreakerCooldown),
		jobs:      map[string]*Job{},
		baseCtx:   ctx,
		cancelAll: cancel,
		reg:       NewRegistry(),
		recent:    newOutcomeWindow(128),
	}
	s.submitted = s.reg.Counter("clusterd_jobs_submitted_total", "Jobs accepted for execution or served from cache.")
	s.completed = s.reg.Counter("clusterd_jobs_completed_total", "Jobs that finished successfully (cache hits included).")
	s.failed = s.reg.Counter("clusterd_jobs_failed_total", "Jobs that errored or timed out.")
	s.cancelled = s.reg.Counter("clusterd_jobs_cancelled_total", "Jobs cancelled by the client or during drain.")
	s.cacheHits = s.reg.Counter("clusterd_cache_hits_total", "Submissions answered from the result cache.")
	s.cacheMisses = s.reg.Counter("clusterd_cache_misses_total", "Submissions that required a simulation run.")
	s.queueRejected = s.reg.Counter("clusterd_queue_rejected_total", "Submissions rejected because the queue was full.")
	s.retries = s.reg.Counter("clusterd_job_retries_total", "Re-executions of jobs that failed with a retryable fault error.")
	s.degraded = s.reg.Counter("clusterd_jobs_degraded_total", "Jobs that exhausted their retries against an injected fault and failed degraded.")
	s.shed = s.reg.Counter("clusterd_shed_total", "Submissions load-shed because queue saturation crossed the shed threshold.")
	s.journalRecords = s.reg.Counter("clusterd_journal_records_total", "Write-ahead journal records: replayed at startup plus appended since.")
	s.journalErrors = s.reg.Counter("clusterd_journal_errors_total", "Failed journal appends (the in-memory state machine keeps going).")
	s.recovered = s.reg.Counter("clusterd_recovered_jobs_total", "Jobs rehydrated or re-enqueued from the write-ahead journal at startup.")
	s.replShipped = s.reg.Counter("clusterd_journal_replicated_total", "Journal records acknowledged by the replication write quorum.")
	s.replErrors = s.reg.Counter("clusterd_replication_errors_total", "Replication ship attempts that failed (per peer, per batch).")
	s.replIngested = s.reg.Counter("clusterd_replica_frames_ingested_total", "Replication frames appended to this shard's replica store for other shards.")
	s.reg.GaugeFunc("clusterd_breaker_state", "Admission circuit breaker state: 0 closed, 1 half-open, 2 open.",
		func() float64 { return float64(s.brk.current()) })
	s.reg.GaugeFunc("clusterd_queue_depth", "Jobs currently waiting in the queue.",
		func() float64 { return float64(len(s.queue)) })
	s.reg.GaugeFunc("clusterd_cache_entries", "Results currently held by the LRU cache.",
		func() float64 { return float64(s.cache.Len()) })
	s.reg.GaugeFunc("clusterd_cache_hit_ratio", "Lifetime cache hits / (hits + misses); 0 before any lookup.",
		func() float64 {
			h, m := float64(s.cacheHits.Value()), float64(s.cacheMisses.Value())
			if h+m == 0 {
				return 0
			}
			return h / (h + m)
		})
	s.reg.GaugeFunc("clusterd_queue_saturation", "Queued jobs / queue capacity, 0..1.",
		s.QueueSaturation)
	s.reg.GaugeFunc("clusterd_recent_failure_rate", "Failed fraction of the most recent executed jobs (window of 128).",
		func() float64 { r, _ := s.recent.rate(); return r })
	s.replLag = s.reg.GaugeVec("clusterd_replica_lag",
		"Primary journal records not yet acknowledged by each replication peer.", "peer")
	s.energyJoules = s.reg.CounterVec("clusterd_energy_joules_total",
		"Modeled energy-to-solution accumulated over executed jobs by kind (cache hits excluded).", "kind")
	s.durations = s.reg.HistogramVec("clusterd_job_duration_seconds",
		"Wall-clock execution time of completed jobs by kind (cache hits excluded).", "kind",
		[]float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60})

	if jnl != nil {
		// Replicated frames are numbered by journal position, so the
		// commit sequence resumes where the on-disk record stream ends.
		s.journalSeq = uint64(len(recs))
	}
	pending := s.replay(recs)
	return s, pending
}

// start launches the worker pool and re-enqueues the recovered jobs. The
// sends block when the recovered backlog exceeds the queue depth; the
// already-running workers drain it, so they always complete.
func (s *Service) start(pending []*Job) {
	s.wg.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
	for _, job := range pending {
		s.queue <- job
	}
}

// replay folds the journal records into jobs, registers them, rehydrates
// the cache from done results, and returns the unfinished jobs that must
// re-enqueue. A trailing shutdown marker means the previous process
// drained cleanly, so an unfinished job there is a bookkeeping casualty,
// not a crash victim: it is closed out as cancelled rather than re-run.
func (s *Service) replay(recs []journal.Record) []*Job {
	if len(recs) == 0 {
		return nil
	}
	s.journalRecords.Add(uint64(len(recs)))
	cleanShutdown := recs[len(recs)-1].Type == journal.TypeShutdown

	byID := map[string]*Job{}
	var order []string
	for _, r := range recs {
		if r.Type == journal.TypeSubmitted {
			var spec JobSpec
			job := &Job{ID: r.JobID, recovered: true, submitted: r.At, state: StateQueued}
			if err := json.Unmarshal(r.Spec, &spec); err != nil {
				job.state = StateFailed
				job.errMsg = fmt.Sprintf("recovery: undecodable spec: %v", err)
			} else if norm, key, err := Canonicalize(spec); err != nil {
				job.state = StateFailed
				job.errMsg = fmt.Sprintf("recovery: spec no longer valid: %v", err)
			} else {
				job.Spec, job.Key = norm, key
			}
			if _, dup := byID[r.JobID]; !dup {
				order = append(order, r.JobID)
			}
			byID[r.JobID] = job
			if n, err := strconv.ParseUint(strings.TrimLeft(r.JobID, "j"), 10, 64); err == nil && n > s.nextID {
				s.nextID = n
			}
			continue
		}
		job, ok := byID[r.JobID]
		if !ok {
			continue // terminal record for a job outside the journal's horizon
		}
		switch r.Type {
		case journal.TypeStarted:
			job.state = StateRunning
			job.started = r.At
			job.attempts = r.Attempt + 1
		case journal.TypeDone:
			job.state = StateDone
			job.cached = r.Cached
			job.attempts = r.Attempt
			job.finished = r.At
			if len(r.Result) > 0 {
				var res Result
				if err := json.Unmarshal(r.Result, &res); err == nil {
					job.result = &res
				}
			}
		case journal.TypeFailed:
			job.state = StateFailed
			job.errMsg = r.Error
			job.degraded = r.Degraded
			job.attempts = r.Attempt
			job.finished = r.At
		case journal.TypeCancelled:
			job.state = StateCancelled
			job.errMsg = r.Error
			job.attempts = r.Attempt
			job.finished = r.At
		}
	}

	var pending []*Job
	for _, id := range order {
		job := byID[id]
		if !job.state.Terminal() {
			if cleanShutdown {
				job.state = StateCancelled
				job.errMsg = "recovery: unfinished at clean shutdown"
				job.finished = recs[len(recs)-1].At
			} else {
				// Crash victim: wind the job back to queued and run it again.
				job.state = StateQueued
				job.started = time.Time{}
				job.attempts = 0
				pending = append(pending, job)
			}
		}
		if job.state == StateDone && job.result != nil && !job.cached {
			if e := s.cache.Put(job.Key, job.result); e != nil {
				job.resultJSON = e.view
			}
		}
		s.registerLocked(job) // no concurrency yet: workers are not running
		s.recovered.Inc()
	}
	return pending
}

// Registry exposes the metrics registry (the /v1/metrics handler renders
// it; tests can add collectors).
func (s *Service) Registry() *Registry { return s.reg }

// QueueDepth returns the number of queued-but-not-running jobs.
func (s *Service) QueueDepth() int { return len(s.queue) }

// QueueCapacity returns the bounded queue's size.
func (s *Service) QueueCapacity() int { return cap(s.queue) }

// QueueSaturation returns queue depth over capacity, in [0, 1].
func (s *Service) QueueSaturation() float64 {
	return float64(len(s.queue)) / float64(cap(s.queue))
}

// RecentFailureRate returns the failed fraction of the most recently
// executed jobs and the number of outcomes the window holds.
func (s *Service) RecentFailureRate() (float64, int) { return s.recent.rate() }

// BreakerState reports the admission circuit breaker's state:
// "closed", "half-open" or "open".
func (s *Service) BreakerState() string { return s.brk.current().String() }

// RecoveredJobs returns how many jobs were replayed from the journal at
// startup.
func (s *Service) RecoveredJobs() uint64 { return s.recovered.Value() }

// Durable reports whether a write-ahead journal is attached.
func (s *Service) Durable() bool { return s.jnl != nil }

// Workers returns the worker-pool size.
func (s *Service) Workers() int { return s.cfg.Workers }

// ShardName returns this daemon's fleet identity ("" standalone).
func (s *Service) ShardName() string { return s.cfg.ShardName }

// Submit validates, canonicalises and either answers spec from the result
// cache or enqueues it. The returned view is the job as it was admitted:
// StateDone for cache hits, StateQueued otherwise.
//
// Queue-bound submissions pass admission control first: saturation above
// the shed threshold or an open circuit breaker (for fault-carrying
// specs) rejects with *OverloadError before the job consumes anything.
// Admitted jobs are journaled — submission record fsynced — before the
// view is returned, so an acknowledged job survives a crash.
func (s *Service) Submit(spec JobSpec) (JobView, error) {
	norm, key, err := Canonicalize(spec)
	if err != nil {
		return JobView{}, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobView{}, ErrClosed
	}
	s.submitted.Inc()

	now := s.cfg.clock()
	newJob := func() *Job {
		s.nextID++
		return &Job{
			ID:        fmt.Sprintf("j%06d", s.nextID),
			Spec:      norm,
			Key:       key,
			submitted: now,
		}
	}

	if e, ok := s.cache.Get(key); ok {
		job := newJob()
		job.Key = e.key // the entry's copy, so a retained hit holds no key of its own
		job.state = StateDone
		job.cached = true
		job.result, job.resultJSON = e.res, e.view
		job.started = now
		job.finished = now
		if s.jnl != nil {
			//lint:allow lockorder acknowledged-before-durable is the bug this guards: the cache-hit ack must not race a crash, so the fsync stays inside the submission critical section by design
			if err := s.journalAppend(
				journal.Record{Type: journal.TypeSubmitted, JobID: job.ID, At: now, Spec: mustJSON(norm), Key: key},
				journal.Record{Type: journal.TypeDone, JobID: job.ID, At: now, Cached: true, Result: job.resultRecord()},
			); err != nil {
				return JobView{}, err
			}
		}
		s.cacheHits.Inc()
		s.completed.Inc()
		s.registerLocked(job)
		return job.View(), nil
	}
	s.cacheMisses.Inc()

	// Admission control, cheapest signal first. The saturation read is
	// stable enough to act on: only workers drain the queue, so a depth
	// below capacity here cannot grow before our own enqueue below.
	if sat := float64(len(s.queue)) / float64(cap(s.queue)); sat >= s.cfg.ShedThreshold && len(s.queue) < cap(s.queue) {
		s.shed.Inc()
		return JobView{}, &OverloadError{
			Reason:     fmt.Sprintf("shedding load: queue saturation %.2f >= %.2f", sat, s.cfg.ShedThreshold),
			RetryAfter: time.Second,
		}
	}
	isProbe := false
	if norm.Faults != nil {
		rate, samples := s.recent.rate()
		admit, probe, wait := s.brk.allow(now, rate, samples)
		if !admit {
			s.shed.Inc()
			return JobView{}, &OverloadError{
				Reason:     fmt.Sprintf("circuit breaker %s for fault-carrying specs (recent failure rate %.2f)", s.brk.current(), rate),
				RetryAfter: wait,
			}
		}
		isProbe = probe
	}

	job := newJob()
	job.probe = isProbe
	job.state = StateQueued
	if len(s.queue) == cap(s.queue) {
		if isProbe {
			s.brk.abandonProbe()
		}
		s.queueRejected.Inc()
		return JobView{}, ErrQueueFull
	}
	// The journal commit (and, when replication is on, its quorum wait)
	// happens before the enqueue so a journaled job is always accepted:
	// the capacity check above cannot go stale because only workers
	// drain the queue and every other sender holds s.mu.
	if s.jnl != nil {
		//lint:allow lockorder commit-before-enqueue under s.mu is the durability ordering documented above; releasing the lock would let the capacity check go stale
		if err := s.journalAppend(journal.Record{
			Type: journal.TypeSubmitted, JobID: job.ID, At: now, Spec: mustJSON(norm), Key: key,
		}); err != nil {
			if isProbe {
				s.brk.abandonProbe()
			}
			return JobView{}, err
		}
	}
	// The view is taken before the enqueue: a worker can finish a fast job
	// before Submit returns, and a queued job must not read as a cache hit.
	view := job.View()
	//lint:allow lockorder non-blocking by construction: the capacity check above ran under the same s.mu hold and only workers (which never take s.mu first) drain the queue
	s.queue <- job
	s.registerLocked(job)
	return view, nil
}

// resultRecord is the result a done journal record carries: the cache
// entry's bytes when the job has them, which the journal compacts to the
// bytes mustJSON encodes, or else mustJSON's.
func (j *Job) resultRecord() json.RawMessage {
	if j.resultJSON != nil {
		return j.resultJSON
	}
	return mustJSON(j.result)
}

// mustJSON marshals values that are JSON round-trip safe by construction
// (normalised specs, results the HTTP layer already serves as JSON).
// Callers build journal records only when a journal is attached, so a
// service without one never pays for the encoding.
func mustJSON(v any) json.RawMessage {
	buf, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("service: unencodable journal payload: %v", err))
	}
	return buf
}

// journalAppend commits lifecycle records: local journal append (fsync
// included), then — when replication is configured — a ship to the
// follower peers that blocks until the write quorum holds the records.
// The commit lock makes the pipeline a single serialized stream, so
// followers observe frames in exactly journal order.
//
// The error contract splits by caller. Submission paths propagate the
// error (as a DurabilityError, mapped to 503): a job the journal cannot
// vouch for must not be acknowledged, which is what makes a poisoned
// journal fail-stop instead of fail-quiet. Mid-run transitions
// (started, terminal records, shutdown) have no client to refuse, so
// those callers count the error and keep the in-memory state machine
// going.
func (s *Service) journalAppend(recs ...journal.Record) error {
	if s.jnl == nil {
		return nil
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	//lint:allow lockorder serializing append+replicate into one fsynced stream is commitMu's entire purpose; followers must observe frames in journal order
	if err := s.jnl.Append(recs...); err != nil {
		s.journalErrors.Inc()
		return &DurabilityError{Op: "journal append", Err: err}
	}
	s.journalRecords.Add(uint64(len(recs)))
	first := s.journalSeq + 1
	s.journalSeq += uint64(len(recs))
	r := s.replicator()
	if r == nil {
		return nil
	}
	if err := s.replicate(r, recs, first, s.journalSeq); err != nil {
		return &DurabilityError{Op: "replication", Err: err}
	}
	return nil
}

// registerLocked appends the job to the history and prunes the oldest
// finished jobs beyond the history bound. Queued and running jobs are
// never pruned, so the walk from the head steps over in-flight jobs only
// and stops at the last job it prunes: O(in flight) per call, not
// O(MaxJobs). Caller holds s.mu.
func (s *Service) registerLocked(job *Job) {
	s.jobs[job.ID] = job
	job.prev = s.tail
	if s.tail != nil {
		s.tail.next = job
	} else {
		s.head = job
	}
	s.tail = job
	excess := len(s.jobs) - s.cfg.MaxJobs
	for j := s.head; j != nil && excess > 0; {
		next := j.next
		if j.terminal() {
			s.unlinkLocked(j)
			delete(s.jobs, j.ID)
			excess--
		}
		j = next
	}
}

// unlinkLocked takes the job off the history list. Caller holds s.mu.
func (s *Service) unlinkLocked(j *Job) {
	if j.prev != nil {
		j.prev.next = j.next
	} else {
		s.head = j.next
	}
	if j.next != nil {
		j.next.prev = j.prev
	} else {
		s.tail = j.prev
	}
	j.prev, j.next = nil, nil
}

func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal()
}

// Get returns a snapshot of the job with the given ID.
func (s *Service) Get(id string) (JobView, error) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, ErrNotFound
	}
	return job.View(), nil
}

// Jobs returns snapshots of all retained jobs in submission order.
func (s *Service) Jobs() []JobView {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for j := s.head; j != nil; j = j.next {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.View()
	}
	return views
}

// Cancel requests cancellation of a queued or running job. Cancelling a
// terminal job is a no-op (its view is returned unchanged).
func (s *Service) Cancel(id string) (JobView, error) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, ErrNotFound
	}

	job.mu.Lock()
	switch job.state {
	case StateQueued:
		job.cancelWant = true
		job.state = StateCancelled
		job.finished = s.cfg.clock()
		job.errMsg = "cancelled while queued"
		s.cancelled.Inc()
		// A cancellation the journal missed re-runs the job after a
		// crash instead of losing it; counted, not fatal.
		//lint:allow lockorder the queued->cancelled transition and its journal record must be atomic under job.mu, or a concurrent worker could start a job already acknowledged as cancelled
		_ = s.journalAppend(journal.Record{
			Type: journal.TypeCancelled, JobID: job.ID, At: job.finished, Error: job.errMsg,
		})
		if job.probe {
			s.brk.abandonProbe()
		}
	case StateRunning:
		job.cancelWant = true
		if job.cancelFn != nil {
			job.cancelFn()
		}
	}
	job.mu.Unlock()
	return job.View(), nil
}

// worker drains the queue until it is closed, running one job at a time.
func (s *Service) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.execute(job)
	}
}

// errDeadlineMS is the cause a spec's deadline_ms timer cancels its job
// with, so a failed job's message names the timer that fired rather than
// reading the clock again.
var errDeadlineMS = errors.New("service: spec deadline_ms")

// execute runs one job with a per-job timeout (and, when the spec set
// deadline_ms, a per-job deadline measured from submission), records its
// outcome, journals the transitions and populates the cache.
func (s *Service) execute(job *Job) {
	job.mu.Lock()
	if job.state != StateQueued { // cancelled while waiting
		job.mu.Unlock()
		return
	}
	job.started = s.cfg.clock()
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	if deadline := job.deadline(); !deadline.IsZero() {
		// The spec deadline covers queue wait too, so it is anchored at
		// submission on the service clock, and what is left of it runs as
		// a timeout. Nesting under the timeout ctx keeps cancelFn (the
		// outer cancel) propagating to the whole chain.
		var cancelDl context.CancelFunc
		ctx, cancelDl = context.WithTimeoutCause(ctx, deadline.Sub(job.started), errDeadlineMS)
		defer cancelDl()
	}
	job.state = StateRunning
	job.cancelFn = cancel
	job.mu.Unlock()
	defer cancel()
	if s.jnl != nil {
		_ = s.journalAppend(journal.Record{
			Type: journal.TypeStarted, JobID: job.ID, At: job.started,
		})
	}

	type outcome struct {
		res      *Result
		err      error
		attempts int
	}
	ch := make(chan outcome, 1)
	go func() {
		// Retry loop: a job failing with a retryable fault error
		// (faultsim.Retryable) is re-executed up to MaxRetries times with
		// exponential backoff and deterministic jitter. Each attempt
		// re-draws the stochastic faults from (seed, attempt), so a
		// transient fault can clear while a hard-coded dead node fails
		// every attempt and surfaces as a degraded result.
		attempt := 0
		for {
			res, err := s.cfg.runnerAttempt(ctx, job.Spec, attempt)
			if err == nil || ctx.Err() != nil ||
				!faultsim.Retryable(err) || attempt >= s.cfg.MaxRetries {
				ch <- outcome{res, err, attempt + 1}
				return
			}
			s.retries.Inc()
			timer := time.NewTimer(retryDelay(s.cfg.RetryBackoff, job.Key, attempt))
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				ch <- outcome{nil, ctx.Err(), attempt + 1}
				return
			}
			attempt++
		}
	}()

	var out outcome
	select {
	case out = <-ch:
	case <-ctx.Done():
		// The runner goroutine keeps computing in the background and its
		// result is discarded; model runs are bounded so this is cheap.
		out = outcome{nil, ctx.Err(), 0}
	}

	now := s.cfg.clock()
	var stored *cacheEntry
	if out.err == nil {
		stored = s.cache.Put(job.Key, out.res) // encodes the result, so outside job.mu
	}
	job.mu.Lock()
	job.finished = now
	job.cancelFn = nil
	job.attempts = out.attempts
	elapsed := now.Sub(job.started)
	switch {
	case out.err == nil:
		job.state = StateDone
		job.result = out.res
		if stored != nil {
			job.resultJSON = stored.view
		}
		s.completed.Inc()
		s.durations.With(job.Spec.Kind).Observe(elapsed.Seconds())
		if out.res.Energy != nil {
			s.energyJoules.Add(job.Spec.Kind, out.res.Energy.Joules)
		}
		s.recent.record(false)
	case errors.Is(out.err, context.DeadlineExceeded) && !job.cancelWant:
		job.state = StateFailed
		if errors.Is(context.Cause(ctx), errDeadlineMS) {
			job.errMsg = fmt.Sprintf("deadline exceeded: deadline_ms=%d elapsed since submission",
				job.Spec.DeadlineMS)
		} else {
			job.errMsg = fmt.Sprintf("job timed out after %v", s.cfg.JobTimeout)
		}
		s.failed.Inc()
		s.recent.record(true)
	case errors.Is(out.err, context.Canceled) || job.cancelWant:
		job.state = StateCancelled
		job.errMsg = "cancelled while running"
		s.cancelled.Inc()
	case faultsim.Retryable(out.err):
		// Fault errors are never cached, so a later resubmission (against
		// a hopefully-recovered cluster spec) re-runs the simulation.
		job.state = StateFailed
		job.degraded = true
		job.errMsg = fmt.Sprintf("degraded: %v (after %d attempt(s))", out.err, out.attempts)
		s.failed.Inc()
		s.degraded.Inc()
		s.recent.record(true)
	default:
		job.state = StateFailed
		job.errMsg = out.err.Error()
		s.failed.Inc()
		s.recent.record(true)
	}
	var rec journal.Record
	if s.jnl != nil {
		rec = journal.Record{JobID: job.ID, At: now, Attempt: out.attempts, Error: job.errMsg}
		switch job.state {
		case StateDone:
			rec.Type = journal.TypeDone
			rec.Result = job.resultRecord()
		case StateCancelled:
			rec.Type = journal.TypeCancelled
		default:
			rec.Type = journal.TypeFailed
			rec.Degraded = job.degraded
		}
	}
	state := job.state
	isProbe := job.probe
	job.mu.Unlock()
	if s.jnl != nil {
		_ = s.journalAppend(rec)
	}
	if isProbe {
		// The half-open probe's outcome decides the breaker: a fresh
		// success closes it, any failure re-opens it; a cancelled probe
		// judged nothing and just frees the probe slot.
		switch state {
		case StateDone:
			s.brk.onProbe(now, false)
		case StateFailed:
			s.brk.onProbe(now, true)
		default:
			s.brk.abandonProbe()
		}
	}
}

// retryDelay computes the backoff before retry `attempt` (0-based): the
// base doubled per attempt, scaled by a deterministic jitter in [0.75, 1.25)
// drawn from the job's spec hash — reproducible, yet decorrelated across
// jobs so synchronized retries of a hot spec fan out.
func retryDelay(base time.Duration, key string, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base << uint(attempt)
	h := uint64(0)
	if len(key) >= 16 {
		if v, err := strconv.ParseUint(key[:16], 16, 64); err == nil {
			h = v
		}
	}
	jitter := 0.75 + float64(xrand.MixN(h, uint64(attempt))%1024)/2048.0
	return time.Duration(float64(d) * jitter)
}

// Close drains the service: no new submissions are accepted, queued jobs
// are still executed, and Close returns when the pool is idle. If ctx
// expires first, in-flight and remaining queued jobs are cancelled and
// Close waits for the (now fast) drain before returning ctx's error.
//
// Once the pool is idle every job is terminal, so a clean-shutdown
// marker is journaled and the journal closed: the next OpenDurable can
// tell this drain apart from a crash and knows not to re-run anything.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	already := s.closed
	if !already {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	if already {
		return nil
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.cancelAll() // flip every per-job context; workers finish promptly
		<-done
		err = ctx.Err()
	}
	_ = s.journalAppend(journal.Record{Type: journal.TypeShutdown, At: s.cfg.clock()})
	if s.jnl != nil {
		if cerr := s.jnl.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if s.store != nil {
		if cerr := s.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
