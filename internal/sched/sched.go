// Package sched models the cluster's batch scheduler. The paper notes that
// CTE-Arm's scheduler "is aware of the network topology and can allocate
// nodes for user jobs to exploit proximity and reduce the latency of
// messages" — this package implements that policy (greedy hop-distance
// clustering) alongside a random baseline, so experiments can quantify what
// topology-aware placement buys. It places one job at a time on the idle
// machine, as every application data point is priced
// (perfmodel.PlacedCommCost), and keeps no occupancy between placements.
package sched

import (
	"fmt"
	"slices"

	"clustereval/internal/topology"
	"clustereval/internal/xrand"
)

// Policy selects the node-allocation strategy.
type Policy int

// Allocation policies.
const (
	// TopologyAware grows allocations around a seed node by hop distance.
	TopologyAware Policy = iota
	// Random scatters the job across the machine uniformly.
	Random
)

// String names the policy Allocate applies: Random, or topology-aware for
// any other value.
func (p Policy) String() string {
	if p == Random {
		return "random"
	}
	return "topology-aware"
}

// Scheduler places jobs on one cluster's idle machine by its policy.
type Scheduler struct {
	topo   topology.Topology
	policy Policy
	rng    xrand.Rand
}

// New creates a scheduler over the topology with the given policy; seed
// drives the Random policy deterministically.
func New(topo topology.Topology, policy Policy, seed uint64) *Scheduler {
	return &Scheduler{topo: topo, policy: policy, rng: xrand.New(seed)}
}

// Allocate places an n-node job on the idle machine and returns its node
// indices (sorted). The scheduler keeps no occupancy, so every call sees
// every node free. It fails unless 1 ≤ n ≤ the machine's node count.
func (s *Scheduler) Allocate(n int) ([]int, error) {
	nodes := s.topo.Nodes()
	if n < 1 || n > nodes {
		return nil, fmt.Errorf("sched: job size %d outside [1, %d]", n, nodes)
	}
	if s.policy == Random {
		alloc := s.rng.Perm(nodes)[:n]
		slices.Sort(alloc)
		return alloc, nil
	}
	return allocateTopology(s.topo, n), nil
}

// allocateTopology grows the job around the node whose neighbourhood is
// densest: it tries each node as a seed (sampled for big clusters), prices
// the n nearest nodes by hop distance, and keeps the seed with the
// smallest total distance (the first such seed on a tie). The job is the
// first n nodes in (hops, node index) order from that seed, ascending.
//
// On a fat tree that is nodes 0 to n-1: a seed's price only falls as its
// leaf holds more nodes, so no seed is cheaper than the first sampled,
// node 0, whose leaf is full (or the only one), and its nearest nodes in
// (hops, node index) order are the rest of its leaf and then the next
// leaves' in order. A torus is placed by idleTorus.
func allocateTopology(topo topology.Topology, n int) []int {
	switch t := topo.(type) {
	case *topology.FatTree:
		alloc := make([]int, n)
		for i := range alloc {
			alloc[i] = i
		}
		return alloc
	case *topology.Torus:
		return idleTorus(t, n)
	default:
		panic(fmt.Sprintf("sched: no seed pricing for topology %s", t.Name()))
	}
}

// seedStride is the step between the seeds placement samples from a
// machine's nodes: every one up to 48, then about 48 of them.
func seedStride(nodes int) int {
	if nodes > 48 {
		return nodes / 48
	}
	return 1
}

// idleTorus places n nodes on an idle torus. The sampled seeds are nodes
// 0, stride, 2*stride, and so on; idleCost prices each in O(dimensions ×
// diameter) rather than O(nodes), and idleNearest builds the winner's
// selection without visiting the nodes it cannot take.
func idleTorus(t *topology.Torus, n int) []int {
	nodes := t.Nodes()
	counts := make([]int, t.Diameter()+1)
	price := idleCost(t, counts, n)
	best, bestCost := -1, 0
	for seed, stride := 0, seedStride(nodes); seed < nodes; seed += stride {
		if cost := price(seed); best < 0 || cost < bestCost {
			best, bestCost = seed, cost
		}
	}
	price(best) // leaves the winner's histogram in counts
	return idleNearest(t, best, counts, n)
}

// idleCost prices seeds on an idle torus: a seed's price is the summed hop
// distance of its n nearest nodes, read off its histogram of distances to
// every node. An idle torus is the product of its dimensions and a node's
// distance from the seed is the sum of its distances along each
// (Torus.DimHops), so that histogram is the convolution of one histogram
// per dimension: the count of coordinates at each distance from the
// seed's coordinate. idleCost works out each coordinate's histogram once;
// the function it returns convolves the seed's in counts and prices the
// seed from that. A seed whose histograms all equal the last convolved
// seed's has its histogram and price, so it reuses them: on a torus of
// rings and lines of 2, such as CTE-Arm's, every seed does after the
// first.
func idleCost(t *topology.Torus, counts []int, n int) func(seed int) int {
	dims := t.Dims()
	w := len(counts)
	cells := 0 // one per coordinate of every dimension
	for _, size := range dims {
		cells += size
	}
	buf := make([]int, cells*w+w+3*len(dims))
	hists := buf[:cells*w] // a cell's histogram is hists[cell*w:][:w]
	prev := buf[cells*w:][:w]
	start := buf[cells*w+w:][:len(dims)]          // dimension d's first cell
	last := buf[cells*w+w+len(dims):][:len(dims)] // the last convolved seed's cells
	c := buf[cells*w+w+2*len(dims):][:0:len(dims)]
	for d, size := range dims {
		if d > 0 {
			start[d] = start[d-1] + dims[d-1]
		}
		for x := range size {
			for y := range size {
				hists[(start[d]+x)*w+t.DimHops(d, x, y)]++
			}
		}
	}
	cost := -1
	return func(seed int) int {
		c = t.AppendCoords(c[:0], seed)
		same := cost >= 0
		for d, x := range c {
			cell := start[d] + x
			same = same && slices.Equal(hists[cell*w:][:w], hists[last[d]*w:][:w])
			last[d] = cell
		}
		if same {
			return cost
		}
		clear(counts)
		counts[0] = 1
		for _, cell := range last {
			copy(prev, counts)
			clear(counts)
			hist := hists[cell*w:][:w]
			for a, ca := range prev {
				if ca == 0 {
					continue
				}
				for b, cb := range hist[:w-a] {
					counts[a+b] += ca * cb
				}
			}
		}
		cost, _, _ = nearest(counts, n)
		return cost
	}
}

// idleNearest returns, ascending, the first n nodes of an idle torus in
// (hops, node index) order from the seed whose histogram is in counts:
// every node closer than the cut-off distance, then the lowest-indexed
// ones at it. It walks the nodes in index order, a dimension at a time,
// and skips every coordinate prefix already too far to hold a node it may
// take (a node's later dimensions add 0 hops at best), so it visits few
// nodes beyond the ones it takes.
func idleNearest(t *topology.Torus, seed int, counts []int, n int) []int {
	_, cut, atCut := nearest(counts, n)
	dims := t.Dims()
	c := t.AppendCoords(nil, seed)
	alloc := make([]int, 0, n)
	var walk func(d, node, h int)
	walk = func(d, node, h int) {
		if d == len(dims) {
			if h == cut {
				atCut--
			}
			alloc = append(alloc, node)
			return
		}
		for y := range dims[d] {
			if len(alloc) == n {
				return
			}
			// Past the cut, or at it with no slot left there, no node
			// under this prefix can be taken.
			if hy := h + t.DimHops(d, c[d], y); hy < cut || hy == cut && atCut > 0 {
				walk(d+1, node*dims[d]+y, hy)
			}
		}
	}
	walk(0, 0, 0)
	return alloc
}

// nearest reads the n nearest nodes off a distance histogram: their
// summed hop distance, the cut-off distance of the farthest, and how many
// of them lie exactly at the cut-off.
func nearest(counts []int, n int) (cost, cut, atCut int) {
	for h, c := range counts {
		if c >= n {
			return cost + n*h, h, n
		}
		cost += c * h
		n -= c
	}
	panic("sched: fewer nodes than requested")
}

// AvgPairwiseHops measures the quality of an allocation: the mean hop
// distance over all node pairs (0 for single-node jobs).
func AvgPairwiseHops(topo topology.Topology, alloc []int) float64 {
	if len(alloc) < 2 {
		return 0
	}
	sum, count := 0.0, 0
	for i := range alloc {
		for j := i + 1; j < len(alloc); j++ {
			sum += float64(topo.Hops(alloc[i], alloc[j]))
			count++
		}
	}
	return sum / float64(count)
}
