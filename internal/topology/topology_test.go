package topology

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"clustereval/internal/xrand"
)

func TestTofuD192(t *testing.T) {
	tf, err := NewTofuD(192)
	if err != nil {
		t.Fatal(err)
	}
	if tf.Nodes() != 192 {
		t.Fatalf("nodes = %d", tf.Nodes())
	}
	dims := tf.Dims()
	if len(dims) != 6 {
		t.Fatalf("TofuD must be six-dimensional, got %v", dims)
	}
	// Inner unit 2x3x2.
	if dims[3] != 2 || dims[4] != 3 || dims[5] != 2 {
		t.Errorf("inner dims = %v, want [... 2 3 2]", dims)
	}
	// Outer 16 nodes factored 4x2x2.
	if dims[0]*dims[1]*dims[2] != 16 {
		t.Errorf("outer product = %d, want 16", dims[0]*dims[1]*dims[2])
	}
	if dims[0] != 4 {
		t.Errorf("balanced factorization of 16 should lead with 4, got %v", dims)
	}
}

func TestTofuDRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -12, 7, 100} {
		if _, err := NewTofuD(n); err == nil {
			t.Errorf("NewTofuD(%d) accepted", n)
		}
	}
}

func TestBalancedTriple(t *testing.T) {
	cases := []struct{ m, x, y, z int }{
		{1, 1, 1, 1},
		{8, 2, 2, 2},
		{16, 4, 2, 2},
		{12, 3, 2, 2},
		{7, 7, 1, 1},
		{288, 8, 6, 6},
	}
	for _, c := range cases {
		x, y, z := balancedTriple(c.m)
		if x*y*z != c.m {
			t.Errorf("balancedTriple(%d) = %d*%d*%d != %d", c.m, x, y, z, c.m)
		}
		if x != c.x || y != c.y || z != c.z {
			t.Errorf("balancedTriple(%d) = (%d,%d,%d), want (%d,%d,%d)", c.m, x, y, z, c.x, c.y, c.z)
		}
	}
}

func TestCoordsIndexRoundTrip(t *testing.T) {
	tf, err := NewTofuD(192)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tf.Nodes(); i++ {
		if got := tf.Index(tf.Coords(i)); got != i {
			t.Fatalf("round trip %d -> %v -> %d", i, tf.Coords(i), got)
		}
	}
}

func TestTorusHopsProperties(t *testing.T) {
	tf, err := NewTofuD(192)
	if err != nil {
		t.Fatal(err)
	}
	f := func(aRaw, bRaw uint16) bool {
		a := int(aRaw) % tf.Nodes()
		b := int(bRaw) % tf.Nodes()
		h := tf.Hops(a, b)
		// Symmetric; zero iff same node; bounded by diameter.
		if h != tf.Hops(b, a) {
			return false
		}
		if (h == 0) != (a == b) {
			return false
		}
		return h <= tf.Diameter()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTorusTriangleInequality(t *testing.T) {
	tf, err := NewTofuD(24)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(9)
	for trial := 0; trial < 2000; trial++ {
		a, b, c := r.Intn(24), r.Intn(24), r.Intn(24)
		if tf.Hops(a, c) > tf.Hops(a, b)+tf.Hops(b, c) {
			t.Fatalf("triangle inequality violated for %d,%d,%d", a, b, c)
		}
	}
}

func TestTorusWrapDistance(t *testing.T) {
	// A ring of 4: distance from 0 to 3 must be 1, not 3.
	tr, err := NewTorus("ring", []int{4}, []bool{true})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Hops(0, 3); got != 1 {
		t.Errorf("ring wrap distance = %d, want 1", got)
	}
	// A line of 4: distance is 3.
	ln, err := NewTorus("line", []int{4}, []bool{false})
	if err != nil {
		t.Fatal(err)
	}
	if got := ln.Hops(0, 3); got != 3 {
		t.Errorf("line distance = %d, want 3", got)
	}
}

func TestTorusDiameter(t *testing.T) {
	tf, _ := NewTofuD(192)
	// dims [4 2 2 2 3 2], wrap [T T T F T F]: 2+1+1+1+1+1 = 7.
	if got := tf.Diameter(); got != 7 {
		t.Errorf("TofuD(192) diameter = %d, want 7", got)
	}
	// The diameter must actually be attained.
	max := 0
	for i := 0; i < tf.Nodes(); i++ {
		for j := i; j < tf.Nodes(); j++ {
			if h := tf.Hops(i, j); h > max {
				max = h
			}
		}
	}
	if max != tf.Diameter() {
		t.Errorf("observed max hops %d != Diameter() %d", max, tf.Diameter())
	}
}

func TestDiagonalBanding(t *testing.T) {
	// The paper's Fig. 4 shows recurring diagonal patterns: pairs (i, i+k)
	// at fixed stride k share hop distances periodically. Coordinates below
	// the outermost dimension repeat every 48 indices, so the hop count
	// along any fixed-stride diagonal has period 48.
	tf, _ := NewTofuD(192)
	for _, k := range []int{1, 2, 5, 12} {
		for i := 0; i+k+48 < tf.Nodes(); i++ {
			if tf.Hops(i, i+k) != tf.Hops(i+48, i+48+k) {
				t.Fatalf("no periodic banding at i=%d stride=%d", i, k)
			}
		}
	}
}

func TestNodeNames(t *testing.T) {
	if got := TofuNodeName(0); got != "arms0b0-0c" {
		t.Errorf("node 0 = %s", got)
	}
	// The degraded node of Fig. 4.
	if got := TofuNodeName(23); got != "arms0b1-11c" {
		t.Errorf("node 23 = %s, want arms0b1-11c", got)
	}
	if got := TofuNodeName(48); got != "arms1b0-0c" {
		t.Errorf("node 48 = %s", got)
	}
}

func TestFatTree(t *testing.T) {
	ft, err := NewFatTree(96, 24)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Nodes() != 96 {
		t.Fatalf("nodes = %d", ft.Nodes())
	}
	if got := ft.Hops(0, 0); got != 0 {
		t.Errorf("self hops = %d", got)
	}
	if got := ft.Hops(0, 5); got != 2 {
		t.Errorf("same-leaf hops = %d, want 2", got)
	}
	if got := ft.Hops(0, 30); got != 4 {
		t.Errorf("cross-leaf hops = %d, want 4", got)
	}
	if got := ft.Diameter(); got != 4 {
		t.Errorf("diameter = %d", got)
	}
}

func TestFatTreeSmall(t *testing.T) {
	ft, _ := NewFatTree(1, 24)
	if ft.Diameter() != 0 {
		t.Error("single-node fat tree diameter should be 0")
	}
	ft, _ = NewFatTree(10, 24)
	if ft.Diameter() != 2 {
		t.Error("single-leaf fat tree diameter should be 2")
	}
}

func TestFatTreeErrors(t *testing.T) {
	if _, err := NewFatTree(0, 24); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := NewFatTree(10, 0); err == nil {
		t.Error("zero leaf accepted")
	}
}

func TestTorusErrors(t *testing.T) {
	if _, err := NewTorus("x", []int{2, 3}, []bool{true}); err == nil {
		t.Error("mismatched wrap accepted")
	}
	if _, err := NewTorus("x", nil, nil); err == nil {
		t.Error("empty dims accepted")
	}
	if _, err := NewTorus("x", []int{0}, []bool{true}); err == nil {
		t.Error("zero dim accepted")
	}
}

func TestCoordsPanics(t *testing.T) {
	tf, _ := NewTofuD(24)
	for _, f := range []func(){
		func() { tf.Coords(-1) },
		func() { tf.Coords(24) },
		func() { tf.Index([]int{0}) },
		func() { tf.Index([]int{9, 0, 0, 0, 0, 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// fugakuShape is the full-machine 6-D Tofu-D shape of the Fugaku preset
// (158,976 nodes).
func fugakuShape(tb testing.TB) *Torus {
	tb.Helper()
	tf, err := NewTorus("TofuD", []int{24, 23, 24, 2, 3, 2}, []bool{true, true, true, false, true, false})
	if err != nil {
		tb.Fatal(err)
	}
	return tf
}

// coordsHops is the reference hop distance: both nodes' coordinate
// vectors from Coords, compared dimension by dimension.
func coordsHops(t *Torus, a, b int) int {
	ca, cb := t.Coords(a), t.Coords(b)
	h := 0
	for d, size := range t.Dims() {
		diff := ca[d] - cb[d]
		if diff < 0 {
			diff = -diff
		}
		if t.wrap[d] && size-diff < diff {
			diff = size - diff
		}
		h += diff
	}
	return h
}

func TestHopsMatchesCoords(t *testing.T) {
	cte, err := NewTofuD(192)
	if err != nil {
		t.Fatal(err)
	}
	for a := range cte.Nodes() {
		for b := range cte.Nodes() {
			if got, want := cte.Hops(a, b), coordsHops(cte, a, b); got != want {
				t.Fatalf("CTE-Arm Hops(%d, %d) = %d, Coords reference %d", a, b, got, want)
			}
		}
	}
	fugaku := fugakuShape(t)
	n := fugaku.Nodes()
	r := xrand.New(0xf06a)
	for trial := range 50000 {
		a, b := r.Intn(n), r.Intn(n)
		if trial == 0 {
			a, b = 0, n-1
		}
		if got, want := fugaku.Hops(a, b), coordsHops(fugaku, a, b); got != want {
			t.Fatalf("Fugaku Hops(%d, %d) = %d, Coords reference %d", a, b, got, want)
		}
	}
}

// TestDimHopsSumToHops requires the per-dimension distances placement
// prices torus seeds with to add up to Hops over AppendCoords' decoding,
// on every CTE-Arm pair, with AppendCoords matching Coords.
func TestDimHopsSumToHops(t *testing.T) {
	cte, err := NewTofuD(192)
	if err != nil {
		t.Fatal(err)
	}
	var ca, cb []int
	for a := range cte.Nodes() {
		ca = cte.AppendCoords(ca[:0], a)
		if !slices.Equal(ca, cte.Coords(a)) {
			t.Fatalf("AppendCoords(%d) = %v, Coords %v", a, ca, cte.Coords(a))
		}
		for b := range cte.Nodes() {
			cb = cte.AppendCoords(cb[:0], b)
			sum := 0
			for d := range ca {
				sum += cte.DimHops(d, ca[d], cb[d])
			}
			if want := cte.Hops(a, b); sum != want {
				t.Fatalf("DimHops of %d and %d sum to %d, Hops %d", a, b, sum, want)
			}
		}
	}
}

// TestHopRowsMatchHops requires every row HopRows fills to hold Hops
// from its source to each node of the list from its first entry on, and
// to leave the entries before it alone. The list is every node in order
// on CTE-Arm's TofuD, and random nodes on a torus with a line of 4 and a
// dimension of size 1, on Fugaku's shape, and on fat trees with a
// partial last leaf and with leaf size 1. Every list ends by repeating a
// node, whose distance to itself is 0. Each list is walked twice: row i
// from the list's node i from entry i+1 on, as the pairs of an
// allocation are, and from a random node from entry i mod 3 on.
func TestHopRowsMatchHops(t *testing.T) {
	cte, err := NewTofuD(192)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := NewTorus("mesh", []int{3, 4, 1, 5}, []bool{true, false, true, true})
	if err != nil {
		t.Fatal(err)
	}
	partial, err := NewFatTree(40, 24)
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewFatTree(30, 1)
	if err != nil {
		t.Fatal(err)
	}
	fugaku := fugakuShape(t)
	for _, topo := range []Topology{cte, mesh, fugaku, partial, single} {
		r := xrand.New(xrand.MixN(0x40b5, uint64(topo.Nodes())))
		nodes := make([]int, 0, 200)
		if topo == Topology(cte) {
			for i := range cte.Nodes() {
				nodes = append(nodes, i)
			}
		} else {
			for range 150 {
				nodes = append(nodes, r.Intn(topo.Nodes()))
			}
		}
		nodes = append(nodes, nodes[len(nodes)/2], topo.Nodes()-1, 0)
		fill := topo.HopRows(nodes)
		hops := make([]int, len(nodes))
		check := func(src, from int) {
			for j := range hops {
				hops[j] = -1
			}
			fill(src, from, hops)
			for j, h := range hops {
				want := -1
				if j >= from {
					want = topo.Hops(src, nodes[j])
				}
				if h != want {
					t.Fatalf("%s-%d: HopRows from node %d (entries %d on) holds %d for node %d, want %d",
						topo.Name(), topo.Nodes(), src, from, h, nodes[j], want)
				}
			}
		}
		for i := range nodes {
			check(nodes[i], i+1)
			check(r.Intn(topo.Nodes()), i%3)
		}
	}
}

func TestHopsPanicsOutOfRange(t *testing.T) {
	tf, _ := NewTofuD(24)
	for _, pair := range [][2]int{{-1, 0}, {0, -1}, {24, 0}, {0, 24}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Hops(%d, %d) did not panic", pair[0], pair[1])
				}
			}()
			tf.Hops(pair[0], pair[1])
		}()
	}
}

func TestHopsAllocFree(t *testing.T) {
	tf, _ := NewTofuD(192)
	ft, _ := NewFatTree(3456, 24)
	sink := 0
	for name, topo := range map[string]Topology{"TofuD": tf, "fat-tree": ft, "Fugaku": fugakuShape(t)} {
		if allocs := testing.AllocsPerRun(100, func() { sink += topo.Hops(5, topo.Nodes()-1) }); allocs != 0 {
			t.Errorf("%s Hops allocates %v times per call", name, allocs)
		}
	}
	if sink == 0 {
		t.Error("Hops returned only zeros")
	}
}

// BenchmarkHops times one hop-distance query over a fixed stream of node
// pairs on CTE-Arm's 192-node TofuD and Fugaku's 6-D shape.
func BenchmarkHops(b *testing.B) {
	cte, err := NewTofuD(192)
	if err != nil {
		b.Fatal(err)
	}
	for _, tf := range []*Torus{cte, fugakuShape(b)} {
		r := xrand.New(0x40b5)
		pairs := make([][2]int, 4096)
		for i := range pairs {
			pairs[i] = [2]int{r.Intn(tf.Nodes()), r.Intn(tf.Nodes())}
		}
		b.Run(fmt.Sprintf("%s-%d", tf.Name(), tf.Nodes()), func(b *testing.B) {
			b.ReportAllocs()
			sink := 0
			for i := range b.N {
				p := pairs[i%len(pairs)]
				sink += tf.Hops(p[0], p[1])
			}
			if sink < 0 {
				b.Fatal("negative hop count")
			}
		})
	}
}
