package scaling

import "testing"

func series(machine string, pts ...Point) Series {
	return Series{Machine: machine, Points: pts}
}

func TestSortedAndTimeAt(t *testing.T) {
	s := series("m", Point{Nodes: 8, Time: 10}, Point{Nodes: 2, Time: 40}, Point{Nodes: 4, Time: 20})
	sorted := s.Sorted()
	if sorted[0].Nodes != 2 || sorted[2].Nodes != 8 {
		t.Errorf("sorted = %v", sorted)
	}
	// Sorted must not mutate the original.
	if s.Points[0].Nodes != 8 {
		t.Error("Sorted mutated the series")
	}
	if tt, ok := s.TimeAt(4); !ok || tt != 20 {
		t.Errorf("TimeAt(4) = %v, %v", tt, ok)
	}
	if _, ok := s.TimeAt(3); ok {
		t.Error("TimeAt(3) should miss")
	}
}

func TestSlowdown(t *testing.T) {
	a := series("cte", Point{Nodes: 12, Time: 85})
	b := series("mn4", Point{Nodes: 12, Time: 25})
	s, err := Slowdown(a, b, 12)
	if err != nil {
		t.Fatal(err)
	}
	if s != 3.4 {
		t.Errorf("slowdown = %v", s)
	}
	if _, err := Slowdown(a, b, 16); err == nil {
		t.Error("missing point accepted")
	}
	zero := series("z", Point{Nodes: 12, Time: 0})
	if _, err := Slowdown(a, zero, 12); err == nil {
		t.Error("zero reference accepted")
	}
}

func TestMatchingNodes(t *testing.T) {
	s := series("cte",
		Point{Nodes: 12, Time: 85}, Point{Nodes: 22, Time: 46},
		Point{Nodes: 44, Time: 24}, Point{Nodes: 78, Time: 14})
	if got := MatchingNodes(s, 25); got != 44 {
		t.Errorf("MatchingNodes = %d, want 44", got)
	}
	if got := MatchingNodes(s, 5); got != 0 {
		t.Errorf("unreachable target should give 0, got %d", got)
	}
	if got := MatchingNodes(s, 1000); got != 12 {
		t.Errorf("easy target should give the smallest run, got %d", got)
	}
}
