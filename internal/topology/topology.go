// Package topology models cluster interconnect topologies at the level the
// paper's network experiments require: the hop distance between any pair of
// nodes. CTE-Arm's TofuD is a six-dimensional torus — hop distance varies
// with node placement, which produces the diagonal banding of Fig. 4 — while
// MareNostrum 4's OmniPath is a two-level fat tree where distance is the
// nearly uniform 2-or-4 links.
package topology

import (
	"fmt"
)

// Topology exposes what the message cost model needs from a network graph.
type Topology interface {
	// Name identifies the topology kind.
	Name() string
	// Nodes returns the number of endpoints.
	Nodes() int
	// Hops returns the number of links a minimal route between a and b
	// traverses; 0 iff a == b.
	Hops(a, b int) int
	// Diameter returns the maximum Hops over all pairs.
	Diameter() int
	// HopRows decodes a list of nodes once and returns fill, which sets
	// hops[j] to Hops(src, nodes[j]) for every j from from on: a row of
	// distances from any node to the list's, with no division per entry,
	// where Hops decodes both of its nodes on every call. hops must hold
	// len(nodes) entries; fill leaves hops[:from] as it was. fill reuses
	// one buffer across calls and is not safe for concurrent use. Like
	// Hops, both panic on an out-of-range node.
	HopRows(nodes []int) (fill func(src, from int, hops []int))
}

// Torus is an N-dimensional torus/mesh. Dimensions with wrap=true are rings
// (distance min(d, size-d)); the others are lines.
type Torus struct {
	dims  []int
	wrap  []bool
	name  string
	nodes int
}

// NewTorus builds a torus with the given per-dimension sizes and wrap flags.
func NewTorus(name string, dims []int, wrap []bool) (*Torus, error) {
	if len(dims) == 0 || len(dims) != len(wrap) {
		return nil, fmt.Errorf("topology: need matching non-empty dims/wrap, got %d/%d", len(dims), len(wrap))
	}
	for i, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("topology: dimension %d has size %d", i, d)
		}
	}
	nodes := 1
	for _, d := range dims {
		nodes *= d
	}
	return &Torus{name: name, dims: append([]int(nil), dims...), wrap: append([]bool(nil), wrap...), nodes: nodes}, nil
}

// NewTofuD builds the TofuD topology for the given node count. TofuD is a
// (X, Y, Z, a, b, c) network whose inner unit is a 2x3x2 group of 12 nodes
// (a and c are meshes of 2, b is a ring of 3); the outer X, Y, Z dimensions
// are rings. nodes must therefore be a multiple of 12.
func NewTofuD(nodes int) (*Torus, error) {
	if nodes <= 0 || nodes%12 != 0 {
		return nil, fmt.Errorf("topology: TofuD needs a positive multiple of 12 nodes, got %d", nodes)
	}
	x, y, z := balancedTriple(nodes / 12)
	dims := []int{x, y, z, 2, 3, 2}
	wrap := []bool{true, true, true, false, true, false}
	return NewTorus("TofuD", dims, wrap)
}

// balancedTriple factors m into x >= y >= z minimizing the largest factor
// (ties broken by minimizing x+y+z). m is small (<= a few hundred), so a
// brute-force scan is fine.
func balancedTriple(m int) (int, int, int) {
	bx, by, bz := m, 1, 1
	for z := 1; z*z*z <= m; z++ {
		if m%z != 0 {
			continue
		}
		mz := m / z
		for y := z; y*y <= mz; y++ {
			if mz%y != 0 {
				continue
			}
			x := mz / y
			if x < bx || (x == bx && x+y+z < bx+by+bz) {
				bx, by, bz = x, y, z
			}
		}
	}
	return bx, by, bz
}

// Name implements Topology.
func (t *Torus) Name() string { return t.name }

// Nodes implements Topology.
func (t *Torus) Nodes() int { return t.nodes }

// Dims returns a copy of the per-dimension sizes.
func (t *Torus) Dims() []int { return append([]int(nil), t.dims...) }

// Coords returns the coordinates of node i (row-major, first dimension
// slowest). It panics on an out-of-range index.
func (t *Torus) Coords(i int) []int { return t.AppendCoords(nil, i) }

// AppendCoords appends the coordinates of node i, as Coords returns them,
// to dst. It panics on an out-of-range index.
func (t *Torus) AppendCoords(dst []int, i int) []int {
	t.checkNode(i)
	n := len(dst)
	dst = append(dst, make([]int, len(t.dims))...)
	for d := len(t.dims) - 1; d >= 0; d-- {
		dst[n+d] = i % t.dims[d]
		i /= t.dims[d]
	}
	return dst
}

// Index is the inverse of Coords.
func (t *Torus) Index(coords []int) int {
	if len(coords) != len(t.dims) {
		panic("topology: coordinate arity mismatch")
	}
	i := 0
	for d, c := range coords {
		if c < 0 || c >= t.dims[d] {
			panic(fmt.Sprintf("topology: coordinate %d out of range for dimension %d", c, d))
		}
		i = i*t.dims[d] + c
	}
	return i
}

// checkNode panics unless i is a node index of the torus.
func (t *Torus) checkNode(i int) {
	if i < 0 || i >= t.nodes {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", i, t.nodes))
	}
}

// Hops implements Topology with dimension-order minimal routing. It peels
// both nodes' coordinates off one digit at a time, fastest dimension
// first, so it allocates nothing. Like Coords, it panics on an
// out-of-range index.
func (t *Torus) Hops(a, b int) int {
	t.checkNode(a)
	t.checkNode(b)
	h := 0
	for d := len(t.dims) - 1; d >= 0; d-- {
		size := t.dims[d]
		h += ringHops(a%size-b%size, size, t.wrap[d])
		a, b = a/size, b/size
	}
	return h
}

// DimHops returns the links a minimal route takes along dimension d
// between coordinates a and b; Hops is its sum over the dimensions of two
// nodes' coordinates. It panics on an out-of-range dimension.
func (t *Torus) DimHops(d, a, b int) int { return ringHops(a-b, t.dims[d], t.wrap[d]) }

// ringHops is the minimal number of links between coordinates diff apart
// along a dimension of size coordinates, a ring when wrap is set and a
// line otherwise.
func ringHops(diff, size int, wrap bool) int {
	if diff < 0 {
		diff = -diff
	}
	if wrap {
		if alt := size - diff; alt < diff {
			diff = alt
		}
	}
	return diff
}

// HopRows implements Topology. It decodes each node of the list into one
// cell per dimension of a row that fill sets, for src, to its distance to
// every coordinate of every dimension (DimHops); a node's distance from
// src is then the sum of its cells.
func (t *Torus) HopRows(nodes []int) func(src, from int, hops []int) {
	dims := len(t.dims)
	width := 0
	for _, size := range t.dims {
		width += size
	}
	buf := make([]int, width+dims+len(nodes)*dims)
	row, coords, cells := buf[:width], buf[width:width:width+dims], buf[width+dims:]
	for k, node := range nodes {
		cell := t.AppendCoords(cells[k*dims:k*dims], node)
		off := 0
		for d, size := range t.dims {
			cell[d] += off
			off += size
		}
	}
	return func(src, from int, hops []int) {
		c := t.AppendCoords(coords, src)
		off := 0
		for d, size := range t.dims {
			for y := range size {
				row[off+y] = ringHops(c[d]-y, size, t.wrap[d])
			}
			off += size
		}
		for j := from; j < len(nodes); j++ {
			h := 0
			for _, cell := range cells[j*dims : (j+1)*dims] {
				h += row[cell]
			}
			hops[j] = h
		}
	}
}

// Diameter implements Topology.
func (t *Torus) Diameter() int {
	d := 0
	for i, size := range t.dims {
		if t.wrap[i] {
			d += size / 2
		} else {
			d += size - 1
		}
	}
	return d
}

// TofuNodeName renders the CTE-Arm node naming scheme: node i of the cluster
// sits in rack i/48, board (i/12)%4, slot i%12, named "arms<rack>b<board>-<slot>c".
// The degraded node the paper identifies, arms0b1-11c, is index 23.
func TofuNodeName(i int) string {
	return fmt.Sprintf("arms%db%d-%dc", i/48, (i/12)%4, i%12)
}

// FatTree is a two-level fat tree: leafSize nodes per edge switch, a core
// layer assumed non-blocking. Hop counts are 2 within a leaf and 4 across.
type FatTree struct {
	nodes    int
	leafSize int
}

// NewFatTree builds a two-level fat tree.
func NewFatTree(nodes, leafSize int) (*FatTree, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("topology: fat tree needs nodes > 0, got %d", nodes)
	}
	if leafSize <= 0 {
		return nil, fmt.Errorf("topology: fat tree needs leafSize > 0, got %d", leafSize)
	}
	return &FatTree{nodes: nodes, leafSize: leafSize}, nil
}

// Name implements Topology.
func (f *FatTree) Name() string { return "fat-tree" }

// Nodes implements Topology.
func (f *FatTree) Nodes() int { return f.nodes }

// leaf returns the edge-switch index of node i.
func (f *FatTree) leaf(i int) int {
	if i < 0 || i >= f.nodes {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", i, f.nodes))
	}
	return i / f.leafSize
}

// Hops implements Topology.
func (f *FatTree) Hops(a, b int) int {
	if a == b {
		return 0
	}
	if f.leaf(a) == f.leaf(b) {
		return 2
	}
	return 4
}

// HopRows implements Topology: each node's leaf is found once, and a
// node's distance from src follows Hops' rule from the two leaves.
func (f *FatTree) HopRows(nodes []int) func(src, from int, hops []int) {
	leaves := make([]int, len(nodes))
	for k, node := range nodes {
		leaves[k] = f.leaf(node)
	}
	return func(src, from int, hops []int) {
		srcLeaf := f.leaf(src)
		for j := from; j < len(nodes); j++ {
			switch {
			case nodes[j] == src:
				hops[j] = 0
			case leaves[j] == srcLeaf:
				hops[j] = 2
			default:
				hops[j] = 4
			}
		}
	}
}

// Diameter implements Topology.
func (f *FatTree) Diameter() int {
	if f.nodes == 1 {
		return 0
	}
	if f.nodes <= f.leafSize {
		return 2
	}
	return 4
}
