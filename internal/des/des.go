// Package des implements a deterministic discrete-event simulation engine.
//
// Simulated processes are ordinary Go functions running in goroutines, but
// only one process executes at a time: a process runs until it blocks on a
// Delay or a Cond, then hands control to the engine's scheduler, which
// advances the virtual clock to the next scheduled event.
// Events at equal times fire in scheduling order, so a simulation is
// bit-reproducible — a property every figure of the reproduction depends
// on, proven by the differential harness (diff_test.go and
// internal/experiment's scheduler test) against the retained reference
// scheduler.
//
// The hot path is built for throughput:
//
//   - Events live in an allocation-free calendar queue
//     (internal/des/calq) keyed on (time, seq); the original
//     container/heap queue is retained in internal/des/refqueue and
//     selected engine-wide by the desrefqueue build tag, or per-engine via
//     NewReference, for differential testing.
//   - All events sharing a timestamp are popped in one batch, so
//     equal-time wake-ups are delivered in one queue scan, in seq order.
//   - Control transfers are a single rendezvous: the yielding process pops
//     the next event itself and resumes that process directly — one
//     channel handoff per event instead of the former two (yield to the
//     engine goroutine, then engine resumes the next process).
//   - Process goroutines come from a shared free list (worker.go) and park
//     for reuse when a body returns, so mpisim's spawn-per-rank-per-run
//     pattern recycles goroutines across World runs instead of spawning.
//
// The engine powers the simulated MPI runtime (internal/mpisim): each rank
// is a Proc, message matching uses Conds, and link bandwidth is modelled
// with Delays computed by the interconnect cost model.
package des

import (
	"context"
	"fmt"
	"math"
	"sort"

	"clustereval/internal/units"
)

// event is a scheduled process wake-up.
type event struct {
	at   units.Seconds
	seq  int64 // tie-breaker: FIFO among equal times
	proc *Proc
}

// eventQueue orders events by (at, seq). Two implementations exist: the
// calendar-queue fast path and the reference heap (see queue.go); the
// differential harness proves them interchangeable.
type eventQueue interface {
	Len() int
	Push(ev event)
	// PopBatch removes every event sharing the earliest timestamp and
	// appends them to dst in seq order.
	PopBatch(dst []event) []event
}

// Engine owns the virtual clock and the event queue.
//
// During a run exactly one goroutine — the process resumed by the last
// event, or the Run caller before the first and after the last — holds the
// control token, and only the holder touches engine state. The token moves
// through channel sends (worker resume channels and the driver's done
// channel), so every access is ordered by a happens-before edge and the
// engine needs no locks.
type Engine struct {
	now units.Seconds
	q   eventQueue
	seq int64

	// batch holds the same-timestamp events currently being delivered;
	// batchPos is the next undelivered index. The slice is reused across
	// batches, so steady-state delivery allocates nothing.
	batch    []event
	batchPos int

	ctx     context.Context
	done    chan struct{} // returns the control token to RunContext
	alive   int           // processes spawned and not yet finished
	waiting map[*Proc]string
	failure error
}

// New returns an engine with the clock at zero, using the build-default
// event queue (the calendar queue, or the reference heap under the
// desrefqueue build tag).
func New() *Engine { return newEngine(newDefaultQueue()) }

// NewReference returns an engine pinned to the reference heap queue
// regardless of build tags: the baseline side of differential tests.
func NewReference() *Engine { return newEngine(newRefQueue()) }

func newEngine(q eventQueue) *Engine {
	return &Engine{
		q:       q,
		ctx:     context.Background(),
		done:    make(chan struct{}, 1),
		waiting: make(map[*Proc]string),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() units.Seconds { return e.now }

// Proc is a simulated process. Its methods must only be called from within
// the process's own body function while the simulation is running.
type Proc struct {
	Name      string
	eng       *Engine
	w         *worker
	scheduled bool
}

// Spawn registers a new process that starts (at the current virtual time)
// when Run is called, or immediately if the simulation is already running.
// The process body runs on a pooled goroutine reused across processes and
// engines.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{Name: name, eng: e, w: getWorker()}
	e.alive++
	p.w.assign <- assignment{p: p, body: body}
	e.schedule(p, e.now)
	return p
}

// schedule enqueues a wake-up for p at time at. A process blocked in one
// place can only be woken once, so a second schedule (e.g. a Broadcast
// racing a Signal) is ignored.
func (e *Engine) schedule(p *Proc, at units.Seconds) {
	if p.scheduled {
		return
	}
	p.scheduled = true
	e.seq++
	e.q.Push(event{at: at, seq: e.seq, proc: p})
}

// dispatch hands control to the next runnable process. It is called by
// whichever goroutine holds the control token — a yielding or finishing
// process, or RunContext entering the run — and either resumes the next
// event's process directly (the single rendezvous) or returns the token to
// the driver when the run is over, aborted, or broken.
func (e *Engine) dispatch() {
	if err := e.ctx.Err(); err != nil {
		e.failure = fmt.Errorf("des: run aborted at t=%v: %w", float64(e.now), err)
		e.done <- struct{}{}
		return
	}
	if e.batchPos == len(e.batch) {
		e.batch = e.batch[:0]
		e.batchPos = 0
		if e.q.Len() == 0 {
			e.done <- struct{}{}
			return
		}
		e.batch = e.q.PopBatch(e.batch)
	}
	ev := e.batch[e.batchPos]
	e.batch[e.batchPos].proc = nil // release once delivered
	e.batchPos++
	if ev.at < e.now {
		e.failure = fmt.Errorf("des: time went backwards: %v < %v", ev.at, e.now)
		e.done <- struct{}{}
		return
	}
	e.now = ev.at
	ev.proc.scheduled = false
	ev.proc.w.resume <- struct{}{}
}

// procFinished is called by a worker whose process body returned: the
// process leaves the simulation and control passes to the next event.
func (e *Engine) procFinished(p *Proc) {
	e.alive--
	e.dispatch()
}

// procPanicked aborts the run, reporting the panic as the run's error. A
// process aborting with an error value (e.g. a typed fault-injection
// failure) stays unwrappable via errors.As.
func (e *Engine) procPanicked(p *Proc, r interface{}) {
	if perr, ok := r.(error); ok {
		e.failure = fmt.Errorf("des: process %q panicked: %w", p.Name, perr)
	} else {
		e.failure = fmt.Errorf("des: process %q panicked: %v", p.Name, r)
	}
	e.done <- struct{}{}
}

// Run executes the simulation until no events remain. It returns an error
// when a process panicked or when live processes remain blocked forever
// (deadlock), naming the stuck processes.
func (e *Engine) Run() error { return e.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation: the context is
// checked between event steps, so a deadline or cancel aborts the
// simulation mid-run — within one event — rather than only at its end.
// An aborted run returns an error wrapping ctx.Err(); the virtual clock
// stops at the abort point. As with a process panic, goroutines of still
// -blocked processes are abandoned (they hold no external resources, and
// their pooled workers are simply never recycled).
func (e *Engine) RunContext(ctx context.Context) error {
	e.ctx = ctx
	e.failure = nil
	e.dispatch() // cede the control token into the simulation
	<-e.done     // and wait for it to come back
	e.ctx = context.Background()
	if e.failure != nil {
		return e.failure
	}
	if e.alive > 0 {
		names := make([]string, 0, len(e.waiting))
		for p, what := range e.waiting {
			names = append(names, fmt.Sprintf("%s (on %s)", p.Name, what))
		}
		sort.Strings(names)
		e.failure = fmt.Errorf("des: deadlock: %d process(es) blocked forever: %v", e.alive, names)
		return e.failure
	}
	return nil
}

// yieldAndWait hands the control token to the next runnable process and
// blocks until rescheduled.
func (p *Proc) yieldAndWait() {
	p.eng.dispatch()
	<-p.w.resume
}

// Now returns the current virtual time.
func (p *Proc) Now() units.Seconds { return p.eng.now }

// Delay advances the process by d of virtual time. Negative or non-finite
// delays panic: they always indicate a broken cost model.
func (p *Proc) Delay(d units.Seconds) {
	if d < 0 || math.IsNaN(float64(d)) || math.IsInf(float64(d), 0) {
		panic(fmt.Sprintf("des: invalid delay %v", float64(d)))
	}
	p.eng.schedule(p, p.eng.now+d)
	p.yieldAndWait()
}

// Cond is a waitable condition: processes Wait on it and other processes
// wake them with Signal or Broadcast. Unlike sync.Cond there is no
// associated lock — the engine's run-one-process-at-a-time discipline makes
// state changes atomic.
type Cond struct {
	eng     *Engine
	name    string
	waiters []*Proc
	head    int // index of the longest waiter; see Signal
}

// NewCond returns a condition bound to the engine.
func (e *Engine) NewCond(name string) *Cond {
	return &Cond{eng: e, name: name}
}

// Wait blocks the calling process until the condition is signalled.
// The caller must re-check its predicate after waking (wake-ups are hints,
// exactly as with sync.Cond).
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	c.eng.waiting[p] = c.name
	p.yieldAndWait()
	delete(c.eng.waiting, p)
}

// Signal wakes the longest-waiting process, if any. Consumed slots are
// skipped with a head index rather than re-slicing (waiters[1:] would pin
// the backing array while shift-copying on append), and the live tail is
// copied down once the dead prefix reaches half the slice — so the backing
// array stays proportional to the peak number of concurrent waiters no
// matter how many signals pass through.
func (c *Cond) Signal() {
	if c.head == len(c.waiters) {
		return
	}
	p := c.waiters[c.head]
	c.waiters[c.head] = nil
	c.head++
	switch {
	case c.head == len(c.waiters):
		c.waiters = c.waiters[:0]
		c.head = 0
	case 2*c.head >= len(c.waiters):
		n := copy(c.waiters, c.waiters[c.head:])
		for i := n; i < len(c.waiters); i++ {
			c.waiters[i] = nil
		}
		c.waiters = c.waiters[:n]
		c.head = 0
	}
	c.eng.schedule(p, c.eng.now)
}

// Broadcast wakes every waiting process.
func (c *Cond) Broadcast() {
	for i := c.head; i < len(c.waiters); i++ {
		c.eng.schedule(c.waiters[i], c.eng.now)
		c.waiters[i] = nil
	}
	c.waiters = c.waiters[:0]
	c.head = 0
}

// NumWaiters returns how many processes are blocked on the condition.
func (c *Cond) NumWaiters() int { return len(c.waiters) - c.head }

// waitersCap reports the backing-array size of the waiter slice, for the
// regression test pinning Signal's bounded-growth contract.
func (c *Cond) waitersCap() int { return cap(c.waiters) }
