// Package mpisim is a simulated MPI runtime. Rank programs are ordinary Go
// functions that call Send/Recv/collectives on a Comm handle; they execute
// as discrete-event processes (internal/des), and every message is priced by
// the interconnect cost model, so a program's elapsed *virtual* time is the
// prediction of its communication behaviour on the modelled cluster, while
// its payloads move for real — solvers running on mpisim compute correct
// numerical results.
//
// Semantics follow MPI where it matters to the reproduction: blocking
// standard-mode sends, non-overtaking point-to-point ordering per (source,
// destination) pair, tag matching with wildcards, and collectives built from
// the textbook algorithms (binomial trees, recursive doubling, ring,
// pairwise exchange) so their cost scales as the real implementations do.
package mpisim

import (
	"context"
	"fmt"

	"clustereval/internal/des"
	"clustereval/internal/faultsim"
	"clustereval/internal/interconnect"
	"clustereval/internal/trace"
	"clustereval/internal/units"
	"clustereval/internal/xrand"
	"sort"
)

// AnySource matches any sending rank in Recv.
const AnySource = -1

// AnyTag matches any message tag in Recv.
const AnyTag = -1

// Message is a delivered point-to-point message.
type Message struct {
	Source  int
	Tag     int
	Bytes   units.Bytes
	Payload interface{}
}

// pending is a message sitting in a destination mailbox, possibly still in
// flight (readyAt in the future).
type pending struct {
	msg     Message
	ctx     uint64 // communicator context: messages never match across comms
	readyAt units.Seconds
}

// World is one simulated MPI job: a set of ranks placed on cluster nodes.
type World struct {
	eng      *des.Engine
	fabric   *interconnect.Fabric
	ranks    int
	rankNode []int
	rankName []string // "rank<r>", built once; Run re-spawns every rank per call

	mailbox  [][]pending
	newMail  []*des.Cond
	trial    []uint64 // per-rank message counter decorrelating noise
	overhead units.Seconds

	elapsed  units.Seconds
	recorder *trace.Recorder
	// compute and comm accumulate the ranks' busy time across the last
	// Run: every Compute span and every blocking communication span adds
	// its duration. Energy integrates the power model over them.
	compute units.Seconds
	comm    units.Seconds
	// faults is the fabric's injected fault scenario (nil = none): Compute
	// spans scale by the per-node slowdown, and any operation touching a
	// failed node aborts the run with a typed *faultsim.NodeFailedError.
	faults *faultsim.Model
}

// AttachRecorder enables POP-style tracing: every Compute span and every
// blocking communication span of every rank is recorded. Pass nil to
// detach. The recorder must cover at least Size() ranks.
func (w *World) AttachRecorder(r *trace.Recorder) error {
	if r != nil && r.Ranks() < w.ranks {
		return fmt.Errorf("mpisim: recorder covers %d ranks, world has %d", r.Ranks(), w.ranks)
	}
	w.recorder = r
	return nil
}

// NewWorld creates a world of ranks placed block-wise onto the fabric's
// nodes: rank r runs on node r/ranksPerNode. It returns an error when the
// ranks do not fit the fabric.
func NewWorld(fabric *interconnect.Fabric, ranks, ranksPerNode int) (*World, error) {
	if ranks <= 0 || ranksPerNode <= 0 {
		return nil, fmt.Errorf("mpisim: need positive ranks (%d) and ranksPerNode (%d)", ranks, ranksPerNode)
	}
	nodesNeeded := (ranks + ranksPerNode - 1) / ranksPerNode
	if nodesNeeded > fabric.Topo.Nodes() {
		return nil, fmt.Errorf("mpisim: %d ranks at %d/node need %d nodes, fabric has %d",
			ranks, ranksPerNode, nodesNeeded, fabric.Topo.Nodes())
	}
	placement := make([]int, ranks)
	for r := range placement {
		placement[r] = r / ranksPerNode
	}
	return NewWorldPlaced(fabric, placement)
}

// NewWorldPlaced creates a world with an explicit rank→node placement.
func NewWorldPlaced(fabric *interconnect.Fabric, rankNode []int) (*World, error) {
	if len(rankNode) == 0 {
		return nil, fmt.Errorf("mpisim: empty placement")
	}
	for r, n := range rankNode {
		if n < 0 || n >= fabric.Topo.Nodes() {
			return nil, fmt.Errorf("mpisim: rank %d placed on node %d, fabric has %d nodes",
				r, n, fabric.Topo.Nodes())
		}
	}
	w := &World{
		eng:      des.New(),
		fabric:   fabric,
		ranks:    len(rankNode),
		rankNode: append([]int(nil), rankNode...),
		mailbox:  make([][]pending, len(rankNode)),
		newMail:  make([]*des.Cond, len(rankNode)),
		trial:    make([]uint64, len(rankNode)),
		overhead: units.Seconds(0.15e-6), // local send/recv software overhead
		faults:   fabric.Faults,
	}
	for r := range w.newMail {
		w.newMail[r] = w.eng.NewCond(fmt.Sprintf("mailbox[%d]", r))
	}
	w.rankName = make([]string, len(rankNode))
	for r := range w.rankName {
		w.rankName[r] = fmt.Sprintf("rank%d", r)
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.ranks }

// NodeOf returns the node hosting rank r.
func (w *World) NodeOf(r int) int { return w.rankNode[r] }

// Elapsed returns the virtual time the last Run took.
func (w *World) Elapsed() units.Seconds { return w.elapsed }

// Run executes program once per rank and drives the simulation to
// completion. It returns the engine's error (deadlock, panic) if any; when
// fault injection fails a node mid-run, the error wraps a
// *faultsim.NodeFailedError recoverable with errors.As.
func (w *World) Run(program func(c *Comm)) error {
	return w.RunContext(context.Background(), program)
}

// RunContext is Run under a context: the DES event loop checks ctx
// between event steps, so a deadline or cancellation aborts the
// simulation promptly mid-run — clusterd's per-job deadlines interrupt a
// running collective, not just the boundary between retry attempts. An
// aborted run's error wraps ctx.Err(); Elapsed reports virtual time up
// to the abort.
func (w *World) RunContext(ctx context.Context, program func(c *Comm)) error {
	start := w.eng.Now()
	w.compute, w.comm = 0, 0
	for r := 0; r < w.ranks; r++ {
		r := r
		comm := &Comm{w: w, rank: r}
		comm.proc = w.eng.Spawn(w.rankName[r], func(p *des.Proc) {
			comm.proc = p
			program(comm)
		})
	}
	err := w.eng.RunContext(ctx)
	w.elapsed = w.eng.Now() - start
	return err
}

// Comm is the per-rank communicator handle passed to rank programs. The
// handle a program receives from Run is the world communicator; Split
// derives sub-communicators, like MPI_Comm_split.
type Comm struct {
	w    *World
	rank int // rank within this communicator
	proc *des.Proc
	rng  *xrand.Rand

	ctx    uint64 // communicator context id (0 = world)
	group  []int  // global ranks of the members; nil = identity (world)
	splits int    // Split calls issued on this communicator
}

// Rank returns the calling rank within this communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in this communicator.
func (c *Comm) Size() int {
	if c.group == nil {
		return c.w.ranks
	}
	return len(c.group)
}

// global maps a communicator-local rank to a world rank.
func (c *Comm) global(r int) int {
	if c.group == nil {
		return r
	}
	return c.group[r]
}

// GlobalRank returns this process's rank in the world communicator.
func (c *Comm) GlobalRank() int { return c.global(c.rank) }

// Node returns the node index hosting this rank.
func (c *Comm) Node() int { return c.w.rankNode[c.GlobalRank()] }

// Now returns the current virtual time.
func (c *Comm) Now() units.Seconds { return c.proc.Now() }

// Rand returns this rank's deterministic random stream.
func (c *Comm) Rand() *xrand.Rand {
	if c.rng == nil {
		r := xrand.New(xrand.MixN(0xc0117, uint64(c.GlobalRank())))
		c.rng = &r
	}
	return c.rng
}

// record accumulates the span into the world's energy accounting and
// emits it to the attached recorder, if any.
func (c *Comm) record(kind trace.Kind, start units.Seconds) {
	if d := c.Now() - start; d > 0 {
		if kind == trace.Compute {
			c.w.compute += d
		} else {
			c.w.comm += d
		}
	}
	if rec := c.w.recorder; rec != nil {
		// Ranks and times are valid by construction; ignore the error.
		_ = rec.Record(c.GlobalRank(), kind, start, c.Now())
	}
}

// failIfDown aborts the run with a typed *faultsim.NodeFailedError when the
// given node has failed by the current sim-time. The panic is recovered by
// the DES engine and surfaces as World.Run's error; failure is observed
// lazily, at the next operation touching the dead node, like a real MPI job
// discovering a peer is gone only when it communicates.
func (c *Comm) failIfDown(node int) {
	if at, ok := c.w.faults.FailTime(node); ok && c.Now() >= at {
		panic(&faultsim.NodeFailedError{Node: node, At: at})
	}
}

// Compute advances this rank's clock by d, modelling local computation.
// Injected per-node slowdown (OS noise, straggler nodes) scales the span.
func (c *Comm) Compute(d units.Seconds) {
	c.failIfDown(c.Node())
	if f := c.w.faults.Slowdown(c.Node()); f != 1 {
		d = units.Seconds(float64(d) * f)
	}
	start := c.Now()
	c.proc.Delay(d)
	c.record(trace.Compute, start)
}

// Send performs a blocking standard-mode send: the caller is occupied for
// the full wire time and the message becomes visible to the receiver when
// it lands.
func (c *Comm) Send(dst, tag int, bytes units.Bytes, payload interface{}) {
	start := c.Now()
	t := c.transitTime(dst, bytes)
	c.deliver(dst, tag, bytes, payload, c.Now()+t)
	c.proc.Delay(t)
	c.record(trace.Comm, start)
}

// Request represents an outstanding non-blocking operation.
type Request struct {
	readyAt units.Seconds
}

// Isend starts a non-blocking send. The caller pays only the software
// overhead; the transfer itself completes in the background at the returned
// request's ready time.
func (c *Comm) Isend(dst, tag int, bytes units.Bytes, payload interface{}) *Request {
	start := c.Now()
	t := c.transitTime(dst, bytes)
	ready := c.Now() + t
	c.deliver(dst, tag, bytes, payload, ready)
	c.proc.Delay(c.w.overhead)
	c.record(trace.Comm, start)
	return &Request{readyAt: ready}
}

// Wait blocks until the request's transfer has completed.
func (c *Comm) Wait(r *Request) {
	if d := r.readyAt - c.Now(); d > 0 {
		start := c.Now()
		c.proc.Delay(d)
		c.record(trace.Comm, start)
	}
}

// WaitAll waits for every request.
func (c *Comm) WaitAll(rs []*Request) {
	var latest units.Seconds
	for _, r := range rs {
		if r.readyAt > latest {
			latest = r.readyAt
		}
	}
	if d := latest - c.Now(); d > 0 {
		start := c.Now()
		c.proc.Delay(d)
		c.record(trace.Comm, start)
	}
}

// transitTime prices one message from this rank to local rank dst.
func (c *Comm) transitTime(dst int, bytes units.Bytes) units.Seconds {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("mpisim: rank %d sends to invalid rank %d", c.rank, dst))
	}
	c.failIfDown(c.Node())
	c.failIfDown(c.w.rankNode[c.global(dst)])
	g := c.GlobalRank()
	c.w.trial[g]++
	return c.w.fabric.MessageTime(c.Node(), c.w.rankNode[c.global(dst)], bytes, c.w.trial[g])
}

// deliver places a message into dst's (local rank) mailbox and wakes any
// waiting Recv.
func (c *Comm) deliver(dst, tag int, bytes units.Bytes, payload interface{}, readyAt units.Seconds) {
	w := c.w
	gdst := c.global(dst)
	w.mailbox[gdst] = append(w.mailbox[gdst], pending{
		msg:     Message{Source: c.rank, Tag: tag, Bytes: bytes, Payload: payload},
		ctx:     c.ctx,
		readyAt: readyAt,
	})
	w.newMail[gdst].Broadcast()
}

// Recv blocks until a message matching (src, tag) within this communicator
// is available, honouring AnySource / AnyTag wildcards, and returns it.
// Matching is FIFO in send order, so point-to-point ordering per pair is
// non-overtaking.
func (c *Comm) Recv(src, tag int) Message {
	w := c.w
	self := c.GlobalRank()
	c.failIfDown(c.Node())
	start := c.Now()
	defer func() { c.record(trace.Comm, start) }()
	for {
		for i, p := range w.mailbox[self] {
			if p.ctx != c.ctx ||
				(src != AnySource && p.msg.Source != src) ||
				(tag != AnyTag && p.msg.Tag != tag) {
				continue
			}
			if d := p.readyAt - c.Now(); d > 0 {
				// The matching message is still in flight; wait for it.
				c.proc.Delay(d)
				c.failIfDown(c.Node()) // the node may have died while waiting
			}
			w.mailbox[self] = append(w.mailbox[self][:i], w.mailbox[self][i+1:]...)
			c.proc.Delay(w.overhead)
			return p.msg
		}
		w.newMail[self].Wait(c.proc)
	}
}

// Sendrecv exchanges messages with two (possibly equal) partners without
// serializing the two transfers, like MPI_Sendrecv.
func (c *Comm) Sendrecv(dst, sendTag int, bytes units.Bytes, payload interface{}, src, recvTag int) Message {
	req := c.Isend(dst, sendTag, bytes, payload)
	msg := c.Recv(src, recvTag)
	c.Wait(req)
	return msg
}

// UndefinedColor excludes the caller from every new communicator in Split,
// like MPI_UNDEFINED.
const UndefinedColor = -1

// Split partitions this communicator like MPI_Comm_split: ranks passing
// the same color form a new communicator, ordered by (key, old rank). It is
// collective — every member must call it. Ranks passing UndefinedColor
// receive nil.
func (c *Comm) Split(color, key int) *Comm {
	c.splits++
	// All members derive the same context ids deterministically from the
	// parent context, the split sequence number, and their color.
	baseCtx := xrand.MixN(c.ctx+1, uint64(c.splits))

	triples := c.Allgather([]float64{float64(color), float64(key), float64(c.rank)}, 8)
	type member struct{ color, key, oldRank int }
	var mine []member
	for _, t := range triples {
		m := member{color: int(t[0]), key: int(t[1]), oldRank: int(t[2])}
		if m.color == color && color != UndefinedColor {
			mine = append(mine, m)
		}
	}
	if color == UndefinedColor {
		return nil
	}
	sort.Slice(mine, func(i, j int) bool {
		if mine[i].key != mine[j].key {
			return mine[i].key < mine[j].key
		}
		return mine[i].oldRank < mine[j].oldRank
	})
	group := make([]int, len(mine))
	newRank := -1
	for i, m := range mine {
		group[i] = c.global(m.oldRank)
		if m.oldRank == c.rank {
			newRank = i
		}
	}
	return &Comm{
		w:     c.w,
		rank:  newRank,
		proc:  c.proc,
		ctx:   xrand.MixN(baseCtx, uint64(uint32(color))),
		group: group,
	}
}
