package alya

import (
	"math"
	"testing"

	"clustereval/internal/apps/scaling"
	"clustereval/internal/machine"
)

func models(t *testing.T) (*Model, *Model) {
	t.Helper()
	ma, err := NewModel(machine.CTEArm(), TestCaseB())
	if err != nil {
		t.Fatal(err)
	}
	mm, err := NewModel(machine.MareNostrum4(), TestCaseB())
	if err != nil {
		t.Fatal(err)
	}
	return ma, mm
}

// curves returns one phase's sweep on CTE-Arm and on MareNostrum 4.
func curves(t *testing.T, ph Phase) (cte, ref scaling.Series) {
	t.Helper()
	a, err := SweepOn(machine.CTEArm(), ph)
	if err != nil {
		t.Fatal(err)
	}
	m, err := SweepOn(machine.MareNostrum4(), ph)
	if err != nil {
		t.Fatal(err)
	}
	return a[0], m[0]
}

func TestMemoryFloor(t *testing.T) {
	ma, mm := models(t)
	// Paper: "the input set requires at least 12 A64FX nodes".
	if got := ma.MinNodes(); got != 12 {
		t.Errorf("CTE-Arm memory floor = %d nodes, paper: 12", got)
	}
	// MN4 has 96 GB/node, floor is 4 nodes — so 1 node is NP there too
	// (Table IV marks Alya NP at 1 node).
	if got := mm.MinNodes(); got <= 1 || got > 8 {
		t.Errorf("MN4 memory floor = %d nodes", got)
	}
	if _, _, _, err := ma.StepTimes(11); err == nil {
		t.Error("run below the memory floor accepted")
	}
	if _, _, _, err := ma.StepTimes(500); err == nil {
		t.Error("run beyond cluster size accepted")
	}
}

func TestFig8TotalSlowdown(t *testing.T) {
	// Paper: between 12 and 16 nodes, CTE-Arm is consistently 3.4x slower.
	cte, ref := curves(t, TimeStep)
	for _, nodes := range []int{12, 14, 16} {
		s, err := scaling.Slowdown(cte, ref, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(s-3.4) > 0.25 {
			t.Errorf("nodes=%d: slowdown %.2f, paper 3.4", nodes, s)
		}
	}
}

func TestFig8Crossover44(t *testing.T) {
	// Paper: 44 A64FX nodes match 12 MareNostrum 4 nodes.
	cte, ref := curves(t, TimeStep)
	target, _ := ref.TimeAt(12)
	if got := scaling.MatchingNodes(cte, target); got != 44 {
		t.Errorf("matching node count = %d, paper: 44", got)
	}
}

func TestFig9AssemblyAnchors(t *testing.T) {
	cte, ref := curves(t, Assembly)
	// 12 MN4 nodes are 4.96x faster than 12 CTE nodes in Assembly.
	s, err := scaling.Slowdown(cte, ref, 12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-4.96) > 0.25 {
		t.Errorf("assembly slowdown at 12 nodes = %.2f, paper 4.96", s)
	}
	// It takes at least 62 CTE nodes to match 12 MN4 nodes.
	target, _ := ref.TimeAt(12)
	if got := scaling.MatchingNodes(cte, target); got != 62 {
		t.Errorf("assembly crossover = %d nodes, paper: 62", got)
	}
}

func TestFig10SolverAnchors(t *testing.T) {
	cte, ref := curves(t, Solver)
	// Solver gap is much smaller: 1.79x at 12 nodes.
	s, err := scaling.Slowdown(cte, ref, 12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1.79) > 0.15 {
		t.Errorf("solver slowdown at 12 nodes = %.2f, paper 1.79", s)
	}
	// 22 CTE nodes match 12 MN4 nodes.
	target, _ := ref.TimeAt(12)
	if got := scaling.MatchingNodes(cte, target); got != 22 {
		t.Errorf("solver crossover = %d nodes, paper: 22", got)
	}
}

func TestSolverMemoryBoundObservation(t *testing.T) {
	// The paper: the Solver benefits from HBM (more memory-bound), hence
	// the smaller gap. Verify the model mechanism: CTE's solver memory
	// time is far below MN4's.
	ma, mm := models(t)
	_, solA, _, err := ma.StepTimes(12)
	if err != nil {
		t.Fatal(err)
	}
	_, solM, _, err := mm.StepTimes(12)
	if err != nil {
		t.Fatal(err)
	}
	asmA, _, _, _ := ma.StepTimes(12)
	asmM, _, _, _ := mm.StepTimes(12)
	gapAsm := float64(asmA) / float64(asmM)
	gapSol := float64(solA) / float64(solM)
	if gapSol >= gapAsm {
		t.Errorf("solver gap %.2f should be below assembly gap %.2f", gapSol, gapAsm)
	}
}

func TestTableIVAlyaRow(t *testing.T) {
	// Table IV row Alya: NP at 1, then 0.30, 0.31, 0.37 (paper's 64-node
	// value drifts up; the model stays near 0.30 — see EXPERIMENTS.md).
	ma, mm := models(t)
	for _, c := range []struct {
		nodes int
		want  float64
		tol   float64
	}{
		{16, 0.30, 0.03},
		{32, 0.31, 0.03},
		{64, 0.37, 0.08},
	} {
		_, _, tA, err := ma.StepTimes(c.nodes)
		if err != nil {
			t.Fatal(err)
		}
		_, _, tM, err := mm.StepTimes(c.nodes)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(tM) / float64(tA)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("nodes=%d: speedup %.3f, paper %.2f", c.nodes, got, c.want)
		}
	}
}

func TestScalingMonotone(t *testing.T) {
	ma, _ := models(t)
	prev := math.Inf(1)
	for _, n := range CTESweep() {
		_, _, total, err := ma.StepTimes(n)
		if err != nil {
			t.Fatal(err)
		}
		if float64(total) >= prev {
			t.Errorf("time not decreasing at %d nodes", n)
		}
		prev = float64(total)
	}
}

func TestNewModelRejectsUnknownMachine(t *testing.T) {
	m := machine.CTEArm()
	m.Name = "Unknown"
	m.CPUName = "POWER9"
	m.Arch = "POWER"
	if _, err := NewModel(m, TestCaseB()); err == nil {
		t.Error("machine with unknown silicon accepted")
	}
	// A renamed A64FX system, by contrast, inherits the CTE-Arm build.
	a := machine.CTEArm()
	a.Name = "Other A64FX"
	if _, err := NewModel(a, TestCaseB()); err != nil {
		t.Errorf("renamed A64FX machine rejected: %v", err)
	}
}

func TestPow23(t *testing.T) {
	for _, x := range []float64{1, 8, 1000, 229000} {
		want := math.Pow(x, 2.0/3.0)
		if got := pow23(x); math.Abs(got-want) > 1e-6*want {
			t.Errorf("pow23(%v) = %v, want %v", x, got, want)
		}
	}
	if pow23(0) != 0 || pow23(-4) != 0 {
		t.Error("pow23 edge cases")
	}
}
