package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"clustereval/internal/journal"
	"clustereval/internal/xrand"
)

// refHistory is the job history as the service kept it before the
// linked list: a map plus a submission-order slice, pruned by a scan of
// the whole slice on every registration. It is the oracle of
// TestHistoryEvictionDifferential.
type refHistory struct {
	maxJobs int
	jobs    map[string]*Job
	order   []string
}

// registerLocked is the old Service.registerLocked verbatim, with
// s.cfg.MaxJobs read from the reference's own bound.
func (s *refHistory) registerLocked(job *Job) {
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	if len(s.order) <= s.maxJobs {
		return
	}
	kept := s.order[:0]
	excess := len(s.order) - s.maxJobs
	for _, id := range s.order {
		j := s.jobs[id]
		if excess > 0 && j != nil && j.terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// ids lists the retained job IDs as the old Jobs() did.
func (s *refHistory) ids() []string {
	var out []string
	for _, id := range s.order {
		if _, ok := s.jobs[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// gatedRunner holds each job in flight until its spec's seed is
// released, or until the job's context ends.
type gatedRunner struct {
	mu       sync.Mutex
	gates    map[uint64]chan struct{}
	released map[uint64]bool
	open     bool // releaseAll ran: no job is held any more
}

func newGatedRunner() *gatedRunner {
	return &gatedRunner{gates: map[uint64]chan struct{}{}, released: map[uint64]bool{}}
}

func (g *gatedRunner) gateLocked(seed uint64) chan struct{} {
	ch, ok := g.gates[seed]
	if !ok {
		ch = make(chan struct{})
		g.gates[seed] = ch
		if g.open {
			g.released[seed] = true
			close(ch)
		}
	}
	return ch
}

// release lets the jobs of seed finish.
func (g *gatedRunner) release(seed uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.released[seed] {
		g.released[seed] = true
		close(g.gateLocked(seed))
	}
}

// releaseAll lets every job finish, so the service drains.
func (g *gatedRunner) releaseAll() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.open = true
	for seed, ch := range g.gates {
		if !g.released[seed] {
			g.released[seed] = true
			close(ch)
		}
	}
}

func (g *gatedRunner) run(ctx context.Context, spec JobSpec) (*Result, error) {
	g.mu.Lock()
	gate := g.gateLocked(spec.Seed)
	g.mu.Unlock()
	select {
	case <-gate:
		return fastRunner(ctx, spec)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// waitJobTerminal waits until the job leaves the queued and running
// states.
func waitJobTerminal(t *testing.T, j *Job) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !j.terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished", j.ID)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// TestHistoryEvictionDifferential drives the service and the reference
// scan through seeded random interleavings of cache hits, misses held in
// flight, completions and cancels, at every MaxJobs from 1 to 8. Each
// registered job is handed to both, and after every step both must list
// the same IDs in the same order and answer Get alike for every ID ever
// issued. A step waits for the transitions it causes, so the two see the
// same terminal states.
func TestHistoryEvictionDifferential(t *testing.T) {
	const (
		seeds       = 12
		steps       = 120
		maxInFlight = 6
	)
	for maxJobs := 1; maxJobs <= 8; maxJobs++ {
		for seed := uint64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("max%d/seed%d", maxJobs, seed), func(t *testing.T) {
				runEvictionDifferential(t, maxJobs, seed, steps, maxInFlight)
			})
		}
	}
}

func runEvictionDifferential(t *testing.T, maxJobs int, seed uint64, steps, maxInFlight int) {
	// A worker per job in flight, so a released job is never stuck in
	// the queue behind held ones.
	g := newGatedRunner()
	s := New(Config{Workers: maxInFlight, QueueDepth: 64, MaxJobs: maxJobs, runner: g.run})
	defer func() {
		g.releaseAll()
		closeNow(t, s)
	}()
	ref := &refHistory{maxJobs: maxJobs, jobs: map[string]*Job{}}
	rng := xrand.New(seed)

	var (
		issued   []string    // every job ID, in submission order
		inFlight []*Job      // submitted misses not yet terminal
		cached   []uint64    // seeds whose result the cache holds
		nextSeed = uint64(1) // next miss's spec seed
		spec     = func(seed uint64) JobSpec { return JobSpec{Kind: "fpu", Seed: seed} }
	)
	submit := func(sp JobSpec) {
		t.Helper()
		v, err := s.Submit(sp)
		if err != nil {
			t.Fatalf("Submit(seed %d): %v", sp.Seed, err)
		}
		s.mu.Lock()
		j := s.jobs[v.ID]
		s.mu.Unlock()
		if j == nil {
			// Pruned on arrival, which only a terminal job may be; the
			// reference sees the same terminal job.
			j = &Job{ID: v.ID, state: v.State}
		}
		ref.registerLocked(j)
		issued = append(issued, v.ID)
		if !v.State.Terminal() {
			inFlight = append(inFlight, j)
		}
	}
	settle := func(i int) {
		t.Helper()
		j := inFlight[i]
		waitJobTerminal(t, j)
		inFlight = slices.Delete(inFlight, i, i+1)
		if j.View().State == StateDone {
			cached = append(cached, j.Spec.Seed)
		}
	}

	for step := 0; step < steps; step++ {
		op := rng.Intn(4)
		switch {
		case op == 0 && len(cached) > 0: // cache hit
			submit(spec(cached[rng.Intn(len(cached))]))
		case op <= 1 && len(inFlight) < maxInFlight: // miss, held in flight
			submit(spec(nextSeed))
			nextSeed++
		case op == 2 && len(inFlight) > 0: // completion
			i := rng.Intn(len(inFlight))
			g.release(inFlight[i].Spec.Seed)
			settle(i)
		case len(issued) > 0: // cancel any job ever issued
			id := issued[rng.Intn(len(issued))]
			_, err := s.Cancel(id)
			if _, kept := ref.jobs[id]; kept != (err == nil) {
				t.Fatalf("step %d: Cancel(%s) = %v, reference retains it: %t", step, id, err, kept)
			}
			if i := slices.IndexFunc(inFlight, func(j *Job) bool { return j.ID == id }); i >= 0 {
				settle(i)
			}
		default:
			submit(spec(nextSeed))
			nextSeed++
		}

		var got []string
		for _, v := range s.Jobs() {
			got = append(got, v.ID)
		}
		if want := ref.ids(); !slices.Equal(got, want) {
			t.Fatalf("step %d: Jobs() = %v, reference %v", step, got, want)
		}
		for _, id := range issued {
			v, err := s.Get(id)
			rj, kept := ref.jobs[id]
			switch {
			case kept != (err == nil):
				t.Fatalf("step %d: Get(%s) = %v, reference retains it: %t", step, id, err, kept)
			case err != nil && !errors.Is(err, ErrNotFound):
				t.Fatalf("step %d: Get(%s) = %v", step, id, err)
			case kept && (v.ID != id || v.State.Terminal() != rj.terminal()):
				// Queued and running may still swap between the two reads;
				// terminal states change only inside a step.
				t.Fatalf("step %d: Get(%s) = %s in state %s, reference terminal: %t", step, id, v.ID, v.State, rj.terminal())
			}
		}
	}
}

// hitService returns a service whose history is full of cache hits on
// one warmed spec, the steady state of a long-running shard: every
// further hit evicts the oldest.
func hitService(b *testing.B, maxJobs int) (*Service, JobSpec) {
	b.Helper()
	s := New(Config{Workers: 1, MaxJobs: maxJobs, runner: fastRunner})
	spec := JobSpec{Kind: "net", Seed: 7}
	v, err := s.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	for !v.State.Terminal() {
		time.Sleep(100 * time.Microsecond)
		if v, err = s.Get(v.ID); err != nil {
			b.Fatal(err)
		}
	}
	for range maxJobs {
		if v, err = s.Submit(spec); err != nil || !v.Cached {
			b.Fatalf("filling the history: cached %t, err %v", v.Cached, err)
		}
	}
	return s, spec
}

// BenchmarkSubmitCacheHit times one in-process cache hit on a shard
// without a journal whose history is full, at three history bounds. A
// hit's cost must not grow with the bound.
func BenchmarkSubmitCacheHit(b *testing.B) {
	for _, maxJobs := range []int{64, 1024, 4096} {
		b.Run(fmt.Sprintf("MaxJobs=%d", maxJobs), func(b *testing.B) {
			s, spec := hitService(b, maxJobs)
			defer s.Close(context.Background())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Submit(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpenDurable times reopening a journal that holds one executed
// job and 20,000 cache hits on it, at two history bounds. Each iteration
// opens a fresh copy of the same journal image.
func BenchmarkOpenDurable(b *testing.B) {
	const hits = 20000
	norm, key, err := Canonicalize(JobSpec{Kind: "net", Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	res, err := fastRunner(context.Background(), norm)
	if err != nil {
		b.Fatal(err)
	}
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	recs := []journal.Record{
		{Type: journal.TypeSubmitted, JobID: "j000001", At: at, Spec: mustJSON(norm), Key: key},
		{Type: journal.TypeStarted, JobID: "j000001", At: at},
		{Type: journal.TypeDone, JobID: "j000001", At: at, Attempt: 1, Result: mustJSON(res)},
	}
	for i := 2; i <= hits+1; i++ {
		id := fmt.Sprintf("j%06d", i)
		recs = append(recs,
			journal.Record{Type: journal.TypeSubmitted, JobID: id, At: at, Spec: mustJSON(norm), Key: key},
			journal.Record{Type: journal.TypeDone, JobID: id, At: at, Cached: true, Result: mustJSON(res)},
		)
	}
	dir := b.TempDir()
	image := filepath.Join(dir, "image.wal")
	if err := journal.WriteJournal(image, recs); err != nil {
		b.Fatal(err)
	}
	data, err := os.ReadFile(image)
	if err != nil {
		b.Fatal(err)
	}
	for _, maxJobs := range []int{64, 4096} {
		b.Run(fmt.Sprintf("MaxJobs=%d", maxJobs), func(b *testing.B) {
			path := filepath.Join(dir, fmt.Sprintf("open-%d.wal", maxJobs))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := os.WriteFile(path, data, 0o644); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				s, err := OpenDurable(Config{Workers: 1, MaxJobs: maxJobs, runner: fastRunner}, path)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if got := s.RecoveredJobs(); got != hits+1 {
					b.Fatalf("recovered %d jobs, want %d", got, hits+1)
				}
				if err := s.Close(context.Background()); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
