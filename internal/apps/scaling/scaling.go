// Package scaling holds the strong-scaling series type shared by the five
// application reproductions (Figs. 8-16) and the analysis helpers the paper
// applies to them: slowdown at equal node counts and the node count needed
// to match a reference time.
package scaling

import (
	"fmt"
	"sort"

	"clustereval/internal/units"
)

// Point is one run of a strong-scaling study.
type Point struct {
	Nodes int
	Time  units.Seconds
}

// Series is one machine's curve in a scalability figure.
type Series struct {
	Machine string
	Label   string // optional sub-label (e.g. "IO enabled", "Assembly")
	Points  []Point
}

// Sorted returns the points ordered by node count.
func (s Series) Sorted() []Point {
	pts := append([]Point(nil), s.Points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Nodes < pts[j].Nodes })
	return pts
}

// TimeAt returns the time at exactly `nodes`, if present.
func (s Series) TimeAt(nodes int) (units.Seconds, bool) {
	for _, p := range s.Points {
		if p.Nodes == nodes {
			return p.Time, true
		}
	}
	return 0, false
}

// DoublingSweep returns a strong-scaling node ladder for machines outside
// the paper's tables: doubling counts from min upward, with max itself
// always included so the sweep reaches the machine's full partition.
func DoublingSweep(min, max int) []int {
	if min < 1 {
		min = 1
	}
	if max < min {
		return nil
	}
	var out []int
	for n := min; n < max; n *= 2 {
		out = append(out, n)
	}
	return append(out, max)
}

// Slowdown returns tA/tB at the given node count; both series must contain
// the point.
func Slowdown(a, b Series, nodes int) (float64, error) {
	ta, ok := a.TimeAt(nodes)
	if !ok {
		return 0, fmt.Errorf("scaling: %s has no %d-node point", a.Machine, nodes)
	}
	tb, ok := b.TimeAt(nodes)
	if !ok {
		return 0, fmt.Errorf("scaling: %s has no %d-node point", b.Machine, nodes)
	}
	if tb <= 0 {
		return 0, fmt.Errorf("scaling: non-positive reference time")
	}
	return float64(ta) / float64(tb), nil
}

// MatchingNodes returns the smallest node count in s whose time is at or
// below target — how the paper finds "44 A64FX nodes match 12 MareNostrum 4
// nodes". It returns 0 when no point reaches the target.
func MatchingNodes(s Series, target units.Seconds) int {
	for _, p := range s.Sorted() {
		if p.Time <= target {
			return p.Nodes
		}
	}
	return 0
}
