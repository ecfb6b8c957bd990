// Package perfmodel composes the machine, toolchain and interconnect models
// into execution-time predictions for full-scale runs. The DES-backed MPI
// runtime (internal/mpisim) prices programs message by message, which is
// exact but impractical for the paper's 9216-rank application runs; this
// package provides the closed-form layer used at paper scale:
//
//   - a roofline: a phase is compute-bound or memory-bound, whichever is
//     slower, with the sustained rates coming from the toolchain build
//     (vectorized vs scalar fallback) and the memory model;
//   - α-β collective costs with the textbook algorithm shapes;
//   - a load-imbalance model for partitioned workloads.
package perfmodel

import (
	"fmt"
	"math"

	"clustereval/internal/interconnect"
	"clustereval/internal/machine"
	"clustereval/internal/sched"
	"clustereval/internal/toolchain"
	"clustereval/internal/units"
)

// Work describes the resource demands of one phase on one rank.
type Work struct {
	Flops float64            // floating-point operations
	Bytes float64            // DRAM traffic in bytes
	Kind  toolchain.CodeKind // how vectorizable the phase's loops are
}

// Exec binds a machine to a compiled build; it prices Work.
type Exec struct {
	Machine machine.Machine
	Build   *toolchain.Build
}

// NewExec compiles app with the given compiler for m and returns the
// executable model.
func NewExec(m machine.Machine, c toolchain.Compiler, app string) (*Exec, error) {
	b, err := toolchain.Compile(c, m, app)
	if err != nil {
		return nil, err
	}
	return &Exec{Machine: m, Build: b}, nil
}

// CoreFlops returns the sustained per-core floating-point rate for loops of
// kind k under this build.
func (e *Exec) CoreFlops(k toolchain.CodeKind) units.FlopsPerSecond {
	return units.FlopsPerSecond(toolchain.SustainedFlops(e.Build, e.Machine, k))
}

// NodeStreamBW returns the aggregate sustainable memory bandwidth of one
// node under MPI-style placement (ranks pinned, memory local).
func (e *Exec) NodeStreamBW() units.BytesPerSecond {
	var sum float64
	for _, d := range e.Machine.Node.Domains {
		sum += float64(d.PeakBW) * d.StreamEff
	}
	return units.BytesPerSecond(sum)
}

// Time prices one phase executing on `cores` cores of a node (the cores of
// one rank), sharing the node's memory bandwidth proportionally. The
// roofline rule applies: the phase takes the maximum of its compute time
// and its memory time.
func (e *Exec) Time(w Work, cores int) units.Seconds {
	if cores <= 0 {
		panic(fmt.Sprintf("perfmodel: non-positive core count %d", cores))
	}
	if w.Flops < 0 || w.Bytes < 0 {
		panic("perfmodel: negative work")
	}
	nodeCores := e.Machine.Node.Cores()
	if cores > nodeCores {
		cores = nodeCores
	}
	flopRate := float64(e.CoreFlops(w.Kind)) * float64(cores)
	bwShare := float64(e.NodeStreamBW()) * float64(cores) / float64(nodeCores)

	tc := 0.0
	if w.Flops > 0 {
		tc = w.Flops / flopRate
	}
	tm := 0.0
	if w.Bytes > 0 {
		tm = w.Bytes / bwShare
	}
	return units.Seconds(math.Max(tc, tm))
}

// Bound reports whether work w on this machine/build is memory-bound.
func (e *Exec) MemoryBound(w Work, cores int) bool {
	nodeCores := e.Machine.Node.Cores()
	if cores > nodeCores {
		cores = nodeCores
	}
	flopRate := float64(e.CoreFlops(w.Kind)) * float64(cores)
	bwShare := float64(e.NodeStreamBW()) * float64(cores) / float64(nodeCores)
	return w.Bytes/bwShare > w.Flops/flopRate
}

// CommCost is the α-β closed-form communication model for one allocation.
type CommCost struct {
	Alpha units.Seconds // representative one-way point-to-point latency
	Beta  float64       // seconds per byte on one link
}

// NewCommCost derives α and β from a fabric and the set of allocated nodes:
// α is the mean pairwise latency over the allocation (sampled exhaustively
// up to 64 nodes, then on a deterministic stride), β is 1/link-peak.
//
// A pair's latency is Fabric.HopLatency of its hop distance plus any
// latency injected on its link, as Fabric.Latency prices it (a node's
// distance to itself is 0 and no fault links a node to itself), so
// NewCommCost fills a table of HopLatency per hop count once and reads
// each pair's distance off Topology.HopRows, which decodes each sampled
// node once. It sums the pairs in the order calling Latency on each
// would, so α is the same to the bit.
func NewCommCost(f *interconnect.Fabric, nodes []int) CommCost {
	if len(nodes) == 0 {
		panic("perfmodel: empty allocation")
	}
	stride := 1
	if len(nodes) > 64 {
		stride = len(nodes) / 64
	}
	// The sampled nodes and one row of their distances share a buffer.
	k := (len(nodes) + stride - 1) / stride
	buf := make([]int, 2*k)
	sampled, hops := buf[:k], buf[k:]
	for i := range sampled {
		sampled[i] = nodes[i*stride]
	}
	var latBuf [16]units.Seconds // a torus of CTE-Arm's size stays on the stack
	lat := latBuf[:0]
	for h := range f.Topo.Diameter() + 1 {
		lat = append(lat, f.HopLatency(h))
	}
	fill := f.Topo.HopRows(sampled)
	var sum float64
	for i, src := range sampled {
		fill(src, i+1, hops)
		for j := i + 1; j < k; j++ {
			l := lat[hops[j]]
			if le, ok := f.Faults.Link(src, sampled[j]); ok {
				l += le.ExtraLatency
			}
			sum += float64(l)
		}
	}
	count := k * (k - 1) / 2
	alpha := f.Net.BaseLatency
	if count > 0 {
		alpha = units.Seconds(sum / float64(count))
	}
	return CommCost{Alpha: alpha, Beta: 1 / float64(f.Net.LinkPeak)}
}

// PlacedCommCost places a job of n nodes on the fabric's idle machine with
// the topology-aware policy of CTE-Arm's scheduler, as every application
// model does per data point, and returns NewCommCost of that placement.
// It fails when the machine has fewer than n nodes.
func PlacedCommCost(f *interconnect.Fabric, n int) (CommCost, error) {
	alloc, err := sched.New(f.Topo, sched.TopologyAware, 1).Allocate(n)
	if err != nil {
		return CommCost{}, err
	}
	return NewCommCost(f, alloc), nil
}

// PtToPt returns the one-way cost of a b-byte message.
func (c CommCost) PtToPt(b units.Bytes) units.Seconds {
	return c.Alpha + units.Seconds(float64(b)*c.Beta)
}

// log2ceil returns ceil(log2(p)) with log2ceil(1) = 0.
func log2ceil(p int) float64 {
	if p <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(p)))
}

// Allreduce prices a recursive-doubling allreduce of b bytes over p ranks.
func (c CommCost) Allreduce(p int, b units.Bytes) units.Seconds {
	return units.Seconds(log2ceil(p)) * c.PtToPt(b)
}

// Bcast prices a binomial-tree broadcast.
func (c CommCost) Bcast(p int, b units.Bytes) units.Seconds {
	return units.Seconds(log2ceil(p)) * c.PtToPt(b)
}

// Allgather prices a ring allgather of per-rank blocks of b bytes.
func (c CommCost) Allgather(p int, b units.Bytes) units.Seconds {
	if p <= 1 {
		return 0
	}
	return units.Seconds(float64(p-1)) * c.PtToPt(b)
}

// Alltoall prices a pairwise-exchange all-to-all with per-pair blocks of b
// bytes.
func (c CommCost) Alltoall(p int, b units.Bytes) units.Seconds {
	if p <= 1 {
		return 0
	}
	return units.Seconds(float64(p-1)) * c.PtToPt(b)
}

// HaloExchange prices a nearest-neighbour exchange with `neighbors` faces of
// b bytes each, assuming sends overlap but each message pays full cost in
// sequence per direction pair (the conservative non-overlapped model real
// stencil codes usually exhibit).
func (c CommCost) HaloExchange(neighbors int, b units.Bytes) units.Seconds {
	if neighbors <= 0 {
		return 0
	}
	return units.Seconds(float64(neighbors)) * c.PtToPt(b)
}

// Barrier prices a dissemination barrier.
func (c CommCost) Barrier(p int) units.Seconds {
	return units.Seconds(log2ceil(p)) * c.PtToPt(8)
}

// Imbalance returns the expected max-over-mean ratio when a workload is
// split into p parts whose sizes vary with coefficient of variation sigma
// (extreme-value approximation: 1 + sigma*sqrt(2 ln p)).
func Imbalance(p int, sigma float64) float64 {
	if p <= 1 || sigma <= 0 {
		return 1
	}
	return 1 + sigma*math.Sqrt(2*math.Log(float64(p)))
}

// Amdahl returns the speedup of p workers when fraction serial of the work
// cannot parallelize.
func Amdahl(serial float64, p int) float64 {
	if p < 1 {
		panic("perfmodel: worker count must be >= 1")
	}
	if serial < 0 || serial > 1 {
		panic("perfmodel: serial fraction out of [0,1]")
	}
	return 1 / (serial + (1-serial)/float64(p))
}
