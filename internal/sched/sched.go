// Package sched models the cluster's batch scheduler. The paper notes that
// CTE-Arm's scheduler "is aware of the network topology and can allocate
// nodes for user jobs to exploit proximity and reduce the latency of
// messages" — this package implements that policy (greedy hop-distance
// clustering) alongside a random baseline, so experiments can quantify what
// topology-aware placement buys.
package sched

import (
	"fmt"
	"slices"
	"sort"

	"clustereval/internal/topology"
	"clustereval/internal/xrand"
)

// Policy selects the node-allocation strategy.
type Policy int

// Allocation policies.
const (
	// TopologyAware grows allocations around a seed node by hop distance.
	TopologyAware Policy = iota
	// Random scatters the job across free nodes uniformly.
	Random
	// LinearFirstFit takes the lowest-indexed free nodes.
	LinearFirstFit
)

func (p Policy) String() string {
	switch p {
	case TopologyAware:
		return "topology-aware"
	case Random:
		return "random"
	default:
		return "linear-first-fit"
	}
}

// Scheduler tracks node occupancy of one cluster and hands out allocations.
type Scheduler struct {
	topo   topology.Topology
	policy Policy
	busy   []bool
	nBusy  int
	rng    xrand.Rand
}

// New creates a scheduler over the topology with the given policy; seed
// drives the Random policy deterministically.
func New(topo topology.Topology, policy Policy, seed uint64) *Scheduler {
	return &Scheduler{
		topo:   topo,
		policy: policy,
		busy:   make([]bool, topo.Nodes()),
		rng:    xrand.New(seed),
	}
}

// FreeNodes returns how many nodes are currently unallocated.
func (s *Scheduler) FreeNodes() int { return len(s.busy) - s.nBusy }

// Allocate reserves n nodes and returns their indices (sorted). It fails
// when the cluster does not have n free nodes.
func (s *Scheduler) Allocate(n int) ([]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sched: job size %d must be positive", n)
	}
	if n > s.FreeNodes() {
		return nil, fmt.Errorf("sched: job needs %d nodes, only %d free", n, s.FreeNodes())
	}
	var alloc []int
	switch s.policy {
	case LinearFirstFit:
		alloc = s.allocateLinear(n)
	case Random:
		alloc = s.allocateRandom(n)
	default:
		alloc = s.allocateTopology(n)
	}
	for _, node := range alloc {
		s.busy[node] = true
	}
	s.nBusy += n
	sort.Ints(alloc)
	return alloc, nil
}

func (s *Scheduler) allocateLinear(n int) []int {
	alloc := make([]int, 0, n)
	for i := 0; i < len(s.busy) && len(alloc) < n; i++ {
		if !s.busy[i] {
			alloc = append(alloc, i)
		}
	}
	return alloc
}

func (s *Scheduler) allocateRandom(n int) []int {
	free := make([]int, 0, s.FreeNodes())
	for i, b := range s.busy {
		if !b {
			free = append(free, i)
		}
	}
	perm := s.rng.Perm(len(free))
	alloc := make([]int, n)
	for i := 0; i < n; i++ {
		alloc[i] = free[perm[i]]
	}
	return alloc
}

// allocateTopology grows the job around the free node whose neighbourhood
// is densest: it tries each free node as a seed (sampled for big clusters),
// prices the n nearest free nodes by hop distance, and keeps the seed with
// the smallest total distance (the first such seed on a tie).
//
// Hop distances are small integers, so a seed's price is read off a
// histogram of its distances to every free node, with no sort; only the
// winning seed's selection is built, from its distances (Hops). On a fat
// tree the histogram comes from per-leaf free counts (leafCost), on a
// torus from each free node's coordinates, decoded once per placement
// (torusCost).
//
// Every production placement is on an idle machine, which takes a
// shorter path. On an idle fat tree it is nodes 0 to n-1: a seed's price
// only falls as its leaf holds more free nodes, so no seed is cheaper
// than the first sampled, node 0, whose leaf is full (or the only one),
// and its nearest nodes in (hops, node index) order are the rest of its
// leaf and then the next leaves' in order. An idle torus is placed by
// idleTorus.
func (s *Scheduler) allocateTopology(n int) []int {
	if s.nBusy == 0 {
		switch t := s.topo.(type) {
		case *topology.FatTree:
			return s.allocateLinear(n)
		case *topology.Torus:
			return idleTorus(t, n)
		}
	}
	free := make([]int, 0, s.FreeNodes())
	for i, b := range s.busy {
		if !b {
			free = append(free, i)
		}
	}
	hops := make([]int, len(free))
	counts := make([]int, s.topo.Diameter()+1)
	var price func(seed int) int
	switch t := s.topo.(type) {
	case *topology.FatTree:
		price = leafCost(t, free, n)
	case *topology.Torus:
		price = torusCost(t, free, hops, counts, n)
	default:
		panic(fmt.Sprintf("sched: no seed pricing for topology %s", t.Name()))
	}
	best, bestCost := -1, 0
	for si, stride := 0, seedStride(len(free)); si < len(free); si += stride {
		if cost := price(free[si]); best < 0 || cost < bestCost {
			best, bestCost = free[si], cost
		}
	}
	s.distances(best, free, hops, counts)
	return nearestFrom(free, hops, counts, n)
}

// seedStride is the step between the seeds placement samples from a list
// of free nodes: every one up to 48, then about 48 of them.
func seedStride(free int) int {
	if free > 48 {
		return free / 48
	}
	return 1
}

// leafCost prices seeds on a fat tree, where the distance between two
// nodes depends only on whether they share a leaf (FatTree.Hops): 0 to
// itself, 2 within its leaf and 4 across. So a seed's distance histogram
// is {0: 1, 2: free nodes in its leaf - 1, 4: free nodes elsewhere}.
// leafCost counts the free nodes per leaf once, in O(free), and the
// function it returns prices a seed in O(1) from that histogram.
func leafCost(ft *topology.FatTree, free []int, n int) func(seed int) int {
	leafFree := make([]int, ft.Leaf(ft.Nodes()-1)+1)
	for _, f := range free {
		leafFree[ft.Leaf(f)]++
	}
	return func(seed int) int {
		inLeaf := leafFree[ft.Leaf(seed)]
		cost, _, _ := nearest([]int{1, 0, inLeaf - 1, 0, len(free) - inLeaf}, n)
		return cost
	}
}

// torusCost prices seeds on a torus from every free node's distance to
// the seed, read off Torus.HopRows, which decodes each free node once per
// placement where Torus.Hops divides on every call.
func torusCost(t *topology.Torus, free, hops, counts []int, n int) func(seed int) int {
	fill := t.HopRows(free)
	return func(seed int) int {
		fill(seed, 0, hops)
		clear(counts)
		for _, h := range hops {
			counts[h]++
		}
		cost, _, _ := nearest(counts, n)
		return cost
	}
}

// idleTorus places n nodes on a torus with no busy node. There the free
// list is every node in index order, so the sampled seeds are nodes 0,
// stride, 2*stride, and so on; idleCost prices each in O(dimensions ×
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

// idleCost prices seeds on an idle torus. An idle torus is the product of
// its dimensions and a node's distance from the seed is the sum of its
// distances along each (Torus.DimHops), so the seed's histogram over
// every node is the convolution of one histogram per dimension: the
// count of coordinates at each distance from the seed's coordinate.
// idleCost works out each coordinate's histogram once; the function it
// returns convolves the seed's in counts and prices the seed from that,
// exactly as torusCost would with every node free. A seed whose
// histograms all equal the last convolved seed's has its histogram and
// price, so it reuses them: on a torus of rings and lines of 2, such as
// CTE-Arm's, every seed does after the first.
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

// idleNearest is nearestFrom on an idle torus, where every node is free:
// given the seed's histogram in counts, it returns the first n nodes in
// (hops, node index) order, ascending. It walks the nodes in index order,
// a dimension at a time, and skips every coordinate prefix already too
// far to hold a node it may take (a node's later dimensions add 0 hops at
// best), so it visits few nodes beyond the ones it takes.
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

// distances sets hops[i] to the hop distance from seed to free[i] and
// counts[h] to the number of free nodes h hops away, for h up to the
// topology's diameter.
func (s *Scheduler) distances(seed int, free, hops, counts []int) {
	clear(counts)
	for i, f := range free {
		h := s.topo.Hops(seed, f)
		hops[i] = h
		counts[h]++
	}
}

// nearest reads the n nearest free nodes off a distance histogram: their
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
	panic("sched: fewer free nodes than requested")
}

// nearestFrom returns, in ascending order, the n free nodes nearest the
// seed that hops and counts describe: every node closer than the cut-off
// distance, then the lowest-indexed ones at it. That is the first n nodes
// in (hops, node index) order.
func nearestFrom(free, hops, counts []int, n int) []int {
	_, cut, atCut := nearest(counts, n)
	alloc := make([]int, 0, n)
	for i, f := range free {
		switch h := hops[i]; {
		case h < cut:
			alloc = append(alloc, f)
		case h == cut && atCut > 0:
			alloc = append(alloc, f)
			atCut--
		}
	}
	return alloc
}

// Release frees an allocation. It fails on nodes that are not allocated
// and on a node listed twice, leaving occupancy unchanged in that case.
func (s *Scheduler) Release(nodes []int) error {
	for i, node := range nodes {
		var err error
		switch {
		case node < 0 || node >= len(s.busy):
			err = fmt.Errorf("sched: release of invalid node %d", node)
		case !s.busy[node] && slices.Contains(nodes[:i], node):
			err = fmt.Errorf("sched: release lists node %d twice", node)
		case !s.busy[node]:
			err = fmt.Errorf("sched: release of free node %d", node)
		}
		if err != nil {
			for _, freed := range nodes[:i] {
				s.busy[freed] = true
			}
			return err
		}
		s.busy[node] = false
	}
	s.nBusy -= len(nodes)
	return nil
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
