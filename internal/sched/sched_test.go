package sched

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"clustereval/internal/topology"
	"clustereval/internal/xrand"
)

func tofu(t *testing.T) *topology.Torus {
	t.Helper()
	tp, err := topology.NewTofuD(192)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestAllocateBasics(t *testing.T) {
	s := New(tofu(t), TopologyAware, 1)
	alloc, err := s.Allocate(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc) != 16 {
		t.Fatalf("allocated %d nodes", len(alloc))
	}
	seen := map[int]bool{}
	for _, n := range alloc {
		if n < 0 || n >= 192 || seen[n] {
			t.Fatalf("bad allocation %v", alloc)
		}
		seen[n] = true
	}
	if s.FreeNodes() != 176 {
		t.Errorf("free = %d, want 176", s.FreeNodes())
	}
}

func TestAllocateErrors(t *testing.T) {
	s := New(tofu(t), TopologyAware, 1)
	if _, err := s.Allocate(0); err == nil {
		t.Error("zero-size job accepted")
	}
	if _, err := s.Allocate(-4); err == nil {
		t.Error("negative job accepted")
	}
	if _, err := s.Allocate(193); err == nil {
		t.Error("oversized job accepted")
	}
	// Fill the machine, then one more must fail.
	if _, err := s.Allocate(192); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Allocate(1); err == nil {
		t.Error("allocation from a full machine accepted")
	}
}

func TestReleaseCycle(t *testing.T) {
	s := New(tofu(t), LinearFirstFit, 1)
	a, _ := s.Allocate(100)
	b, _ := s.Allocate(92)
	if s.FreeNodes() != 0 {
		t.Fatal("machine should be full")
	}
	if err := s.Release(a); err != nil {
		t.Fatal(err)
	}
	if s.FreeNodes() != 100 {
		t.Errorf("free = %d", s.FreeNodes())
	}
	// Double release fails and changes nothing.
	if err := s.Release(a); err == nil {
		t.Error("double release accepted")
	}
	if s.FreeNodes() != 100 {
		t.Error("failed release mutated occupancy")
	}
	if err := s.Release([]int{-1}); err == nil {
		t.Error("invalid node release accepted")
	}
	// A node listed twice is rejected whole, however many distinct nodes
	// precede the repeat: none is freed.
	for _, dup := range [][]int{{b[0], b[0]}, {b[1], b[2], b[1]}} {
		if err := s.Release(dup); err == nil {
			t.Errorf("release of %v accepted", dup)
		}
		if s.FreeNodes() != 100 || !s.busy[dup[0]] || !s.busy[dup[1]] {
			t.Errorf("rejected release of %v mutated occupancy", dup)
		}
	}
	if err := s.Release(b); err != nil {
		t.Fatal(err)
	}
	if s.FreeNodes() != 192 {
		t.Errorf("free = %d after full release", s.FreeNodes())
	}
	if _, err := s.Allocate(s.FreeNodes()); err != nil {
		t.Errorf("whole machine not allocatable after release: %v", err)
	}
}

func TestNoDoubleAllocation(t *testing.T) {
	s := New(tofu(t), Random, 7)
	seen := map[int]bool{}
	for i := 0; i < 12; i++ {
		alloc, err := s.Allocate(16)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range alloc {
			if seen[n] {
				t.Fatalf("node %d allocated twice", n)
			}
			seen[n] = true
		}
	}
}

func TestTopologyAwareBeatsRandom(t *testing.T) {
	topo := tofu(t)
	ta := New(topo, TopologyAware, 1)
	rnd := New(topo, Random, 1)
	for _, jobSize := range []int{8, 16, 48} {
		aT, err := ta.Allocate(jobSize)
		if err != nil {
			t.Fatal(err)
		}
		aR, err := rnd.Allocate(jobSize)
		if err != nil {
			t.Fatal(err)
		}
		hT := AvgPairwiseHops(topo, aT)
		hR := AvgPairwiseHops(topo, aR)
		if hT >= hR {
			t.Errorf("job %d: topology-aware hops %.2f not better than random %.2f",
				jobSize, hT, hR)
		}
		ta.Release(aT)
		rnd.Release(aR)
	}
}

func TestTopologyAwareOnFragmentedMachine(t *testing.T) {
	topo := tofu(t)
	s := New(topo, TopologyAware, 3)
	// Fragment: allocate and release alternating chunks.
	a, _ := s.Allocate(64)
	b, _ := s.Allocate(64)
	s.Release(a)
	// A new job must still get a sensible allocation from the holes.
	c, err := s.Allocate(32)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c {
		for _, bn := range b {
			if n == bn {
				t.Fatal("allocated a busy node")
			}
		}
	}
}

func TestLinearFirstFit(t *testing.T) {
	s := New(tofu(t), LinearFirstFit, 1)
	alloc, _ := s.Allocate(5)
	for i, n := range alloc {
		if n != i {
			t.Errorf("first-fit alloc = %v, want 0..4", alloc)
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	a1, _ := New(tofu(t), Random, 42).Allocate(16)
	a2, _ := New(tofu(t), Random, 42).Allocate(16)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("random policy not deterministic per seed")
		}
	}
}

func TestAvgPairwiseHopsEdge(t *testing.T) {
	topo := tofu(t)
	if AvgPairwiseHops(topo, []int{5}) != 0 {
		t.Error("single node should have 0 avg hops")
	}
	if AvgPairwiseHops(topo, nil) != 0 {
		t.Error("empty allocation should have 0 avg hops")
	}
}

func TestPolicyStrings(t *testing.T) {
	if TopologyAware.String() != "topology-aware" || Random.String() != "random" ||
		LinearFirstFit.String() != "linear-first-fit" {
		t.Error("policy names")
	}
}

// sortedNearestFrom is the sort-based reference for topology-aware
// placement: every free node sorted by (hops, node index), the first n
// taken, and their summed hop distance.
func sortedNearestFrom(topo topology.Topology, seed int, free []int, n int) ([]int, float64) {
	type nd struct{ node, hops int }
	ds := make([]nd, len(free))
	for i, f := range free {
		ds[i] = nd{node: f, hops: topo.Hops(seed, f)}
	}
	slices.SortFunc(ds, func(x, y nd) int {
		if x.hops != y.hops {
			return cmp.Compare(x.hops, y.hops)
		}
		return cmp.Compare(x.node, y.node)
	})
	alloc := make([]int, n)
	cost := 0.0
	for i := 0; i < n; i++ {
		alloc[i] = ds[i].node
		cost += float64(ds[i].hops)
	}
	return alloc, cost
}

// referenceTopology is the oracle for allocateTopology: the same sampled
// seeds, each priced by sortedNearestFrom, the first cheapest seed winning,
// and the result sorted as Allocate returns it.
func referenceTopology(topo topology.Topology, busy []bool, n int) []int {
	var free []int
	for i, b := range busy {
		if !b {
			free = append(free, i)
		}
	}
	seedStride := 1
	if len(free) > 48 {
		seedStride = len(free) / 48
	}
	bestCost := -1.0
	var best []int
	for si := 0; si < len(free); si += seedStride {
		cand, cost := sortedNearestFrom(topo, free[si], free, n)
		if bestCost < 0 || cost < bestCost {
			best, bestCost = cand, cost
		}
	}
	slices.Sort(best)
	return best
}

// TestPlacementDifferential pins the histogram placement to the sort-based
// reference: on seeded random busy masks, from empty to nearly full, both
// must pick the same nodes for a single node, mid-sized jobs and every
// free node. The fat tree's two distances make ties the common case, so
// the (hops, node index) tie-break and first-seed-wins rule are exercised.
// Besides MareNostrum 4's fat tree, the fat trees cover the edge cases of
// per-leaf pricing: 40 nodes at leaf 24, whose last leaf is partial;
// ThunderX2's 40 nodes at leaf 20; one leaf of 20 nodes (diameter 2); a
// single node (diameter 0); and leaf size 1, where no two nodes share a
// leaf. Every torus of CTE-Arm's shape ties its idle seeds, so the tori
// also cover shapes whose idle seeds do not all tie, or where the
// convolution of idle pricing has edge cases: a ring of 7, a line of 5,
// a 3x4x5 torus whose 4 is a line, a torus with a dimension of size 1,
// and Fugaku's six-dimensional shape at 576 nodes. Every sampled seed's
// price is checked too (checkLeafCost, checkTorusCost).
func TestPlacementDifferential(t *testing.T) {
	torus, err := topology.NewTofuD(6144)
	if err != nil {
		t.Fatal(err)
	}
	type shape struct {
		name string
		topo topology.Topology
	}
	shapes := []shape{{"TofuD-192", tofu(t)}, {"TofuD-6144", torus}}
	for _, tr := range []struct {
		name string
		dims []int
		wrap []bool
	}{
		{"ring-7", []int{7}, []bool{true}},
		{"line-5", []int{5}, []bool{false}},
		{"torus-3x4x5/line4", []int{3, 4, 5}, []bool{true, false, true}},
		{"torus-4x1x3", []int{4, 1, 3}, []bool{true, true, false}},
		{"fugaku-4x3x4x2x3x2", []int{4, 3, 4, 2, 3, 2}, []bool{true, true, true, false, true, false}},
	} {
		torus, err := topology.NewTorus(tr.name, tr.dims, tr.wrap)
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, shape{tr.name, torus})
	}
	for _, nl := range [][2]int{{3456, 24}, {40, 24}, {40, 20}, {20, 20}, {1, 24}, {100, 1}} {
		fatTree, err := topology.NewFatTree(nl[0], nl[1])
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, shape{fmt.Sprintf("fat-tree-%d/leaf%d", nl[0], nl[1]), fatTree})
	}
	for _, sh := range shapes {
		topo := sh.topo
		for mask, busyFrac := range []float64{0, 0.4, 0.95} {
			r := xrand.New(xrand.MixN(0x5c4ed, uint64(topo.Nodes()), uint64(mask)))
			busy := make([]bool, topo.Nodes())
			nBusy := 0
			for i := range busy {
				if r.Float64() < busyFrac {
					busy[i] = true
					nBusy++
				}
			}
			free := len(busy) - nBusy
			sizes := []int{1, 2, 13, free / 5, free / 2, free - 1, free}
			sizes = slices.DeleteFunc(sizes, func(n int) bool { return n < 1 || n > free })
			slices.Sort(sizes)
			for _, n := range slices.Compact(sizes) {
				name := fmt.Sprintf("%s/busy%.2f/n%d", sh.name, busyFrac, n)
				s := New(topo, TopologyAware, 1)
				copy(s.busy, busy)
				s.nBusy = nBusy
				got, err := s.Allocate(n)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if want := referenceTopology(topo, busy, n); !slices.Equal(got, want) {
					t.Errorf("%s: placement differs from the sort-based reference\n got %v\nwant %v", name, got, want)
				}
				switch topo := topo.(type) {
				case *topology.FatTree:
					checkLeafCost(t, name, topo, busy, n)
				case *topology.Torus:
					checkTorusCost(t, name, topo, busy, n)
				}
			}
		}
	}
}

// checkLeafCost requires leafCost to price every seed that placement
// samples exactly as the sort-based reference does: the summed hop
// distance of its n nearest free nodes. Many seeds lead to the same
// placement, so a pricing error can pick another seed without changing
// the nodes; comparing the prices catches it anyway.
func checkLeafCost(t *testing.T, name string, ft *topology.FatTree, busy []bool, n int) {
	t.Helper()
	var free []int
	for i, b := range busy {
		if !b {
			free = append(free, i)
		}
	}
	price := leafCost(ft, free, n)
	for si := 0; si < len(free); si += max(1, len(free)/48) {
		if _, want := sortedNearestFrom(ft, free[si], free, n); float64(price(free[si])) != want {
			t.Errorf("%s: seed %d priced %d, sort-based reference %v", name, free[si], price(free[si]), want)
			return
		}
	}
}

// checkTorusCost is checkLeafCost on a torus: torusCost must price every
// seed that placement samples as the sort-based reference does, and so
// must idleCost, the convolution that prices seeds when no node is busy.
func checkTorusCost(t *testing.T, name string, torus *topology.Torus, busy []bool, n int) {
	t.Helper()
	var free []int
	for i, b := range busy {
		if !b {
			free = append(free, i)
		}
	}
	type pricer struct {
		name  string
		price func(seed int) int
	}
	pricers := []pricer{{"torusCost", torusCost(torus, free, make([]int, len(free)), make([]int, torus.Diameter()+1), n)}}
	if len(free) == len(busy) {
		pricers = append(pricers, pricer{"idleCost", idleCost(torus, make([]int, torus.Diameter()+1), n)})
	}
	for si := 0; si < len(free); si += seedStride(len(free)) {
		_, want := sortedNearestFrom(torus, free[si], free, n)
		for _, p := range pricers {
			if got := p.price(free[si]); float64(got) != want {
				t.Errorf("%s: %s priced seed %d at %d, sort-based reference %v", name, p.name, free[si], got, want)
				return
			}
		}
	}
}

// BenchmarkAllocate times one topology-aware placement at each of Table
// IV's node counts, on CTE-Arm's 192-node TofuD and MareNostrum 4's
// 3,456-node fat tree. Every production placement is on an idle machine,
// as every application model places each data point on a fresh
// scheduler: an idle torus prices its seeds by convolving per-dimension
// histograms, and an idle fat tree takes its first nodes. The busy cases
// time the path only a partly allocated machine takes, on a seeded mask
// with 40% of the nodes busy.
func BenchmarkAllocate(b *testing.B) {
	tofuD, err := topology.NewTofuD(192)
	if err != nil {
		b.Fatal(err)
	}
	fatTree, err := topology.NewFatTree(3456, 24)
	if err != nil {
		b.Fatal(err)
	}
	for _, topo := range []topology.Topology{tofuD, fatTree} {
		r := xrand.New(xrand.MixN(0xbe5c, uint64(topo.Nodes())))
		busy := make([]bool, topo.Nodes())
		nBusy := 0
		for i := range busy {
			if r.Float64() < 0.4 {
				busy[i] = true
				nBusy++
			}
		}
		for _, n := range []int{1, 16, 32, 64, 128, 192} {
			b.Run(fmt.Sprintf("%s-%d/n=%d", topo.Name(), topo.Nodes(), n), func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					if _, err := New(topo, TopologyAware, 1).Allocate(n); err != nil {
						b.Fatal(err)
					}
				}
			})
			if n > len(busy)-nBusy {
				continue
			}
			b.Run(fmt.Sprintf("%s-%d/busy40/n=%d", topo.Name(), topo.Nodes(), n), func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					s := New(topo, TopologyAware, 1)
					copy(s.busy, busy)
					s.nBusy = nBusy
					if _, err := s.Allocate(n); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
