package gromacs

import (
	"math"
	"testing"

	"clustereval/internal/apps/scaling"
	"clustereval/internal/machine"
)

func TestFig12SingleNodeAnchors(t *testing.T) {
	ma, err := NewModel(machine.CTEArm(), LignocelluloseRF())
	if err != nil {
		t.Fatal(err)
	}
	mm, err := NewModel(machine.MareNostrum4(), LignocelluloseRF())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: with 6 cores CTE-Arm is 3.48x slower; with a whole node 3.10x.
	l6 := Layout{Nodes: 1, Ranks: 1, ThreadsPerRank: 6}
	ta, err := ma.StepTime(l6)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := mm.StepTime(l6)
	if err != nil {
		t.Fatal(err)
	}
	if r := float64(ta) / float64(tm); math.Abs(r-3.48) > 0.15 {
		t.Errorf("6-core slowdown = %.2f, paper 3.48", r)
	}
	l48 := Layout{Nodes: 1, Ranks: 8, ThreadsPerRank: 6}
	ta, _ = ma.StepTime(l48)
	tm, _ = mm.StepTime(l48)
	if r := float64(ta) / float64(tm); math.Abs(r-3.10) > 0.15 {
		t.Errorf("full-node slowdown = %.2f, paper 3.10", r)
	}
}

func TestFig13Anomaly16Ranks(t *testing.T) {
	// "The run with 16 MPI processes performs unexpectedly bad in both
	// machines" — and the 12x8 alternative with the same 96 cores
	// follows the scalability trend.
	for _, m := range []machine.Machine{machine.CTEArm(), machine.MareNostrum4()} {
		mod, err := NewModel(m, LignocelluloseRF())
		if err != nil {
			t.Fatal(err)
		}
		bad, err := mod.StepTime(Layout{Nodes: 2, Ranks: 16, ThreadsPerRank: 6})
		if err != nil {
			t.Fatal(err)
		}
		alt, err := mod.StepTime(AlternativeLayout())
		if err != nil {
			t.Fatal(err)
		}
		if float64(bad) < 1.3*float64(alt) {
			t.Errorf("%s: 16-rank anomaly absent: 16x6=%v vs 12x8=%v", m.Name, bad, alt)
		}
		// The anomalous point even undercuts the 1-node run's throughput
		// proportionally: 2 nodes should be ~2x faster than 1, but are not.
		one, _ := mod.StepTime(Layout{Nodes: 1, Ranks: 8, ThreadsPerRank: 6})
		if float64(one)/float64(bad) > 1.5 {
			t.Errorf("%s: 2-node anomalous run scaled too well", m.Name)
		}
	}
}

func TestTableIVGromacsRow(t *testing.T) {
	ma, _ := NewModel(machine.CTEArm(), LignocelluloseRF())
	mm, _ := NewModel(machine.MareNostrum4(), LignocelluloseRF())
	// Paper row: 0.32, 0.36, 0.38, 0.43, 0.54 at 1..128 nodes. (The
	// 192-node value 0.33 contradicts the text's "1.5x slower at 144
	// nodes" and is treated as an outlier — see EXPERIMENTS.md.)
	for _, c := range []struct {
		nodes int
		want  float64
		tol   float64
	}{
		{1, 0.32, 0.02},
		{16, 0.36, 0.025},
		{32, 0.38, 0.025},
		{64, 0.43, 0.04},
		{128, 0.54, 0.06},
	} {
		l := Layout{Nodes: c.nodes, Ranks: 8 * c.nodes, ThreadsPerRank: 6}
		ta, err := ma.StepTime(l)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := mm.StepTime(l)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(tm) / float64(ta)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("nodes=%d: speedup %.3f, paper %.2f", c.nodes, got, c.want)
		}
	}
}

func TestFig13Slowdown144(t *testing.T) {
	// Paper text: with 144 full nodes, CTE-Arm is 1.5x slower.
	ma, _ := NewModel(machine.CTEArm(), LignocelluloseRF())
	mm, _ := NewModel(machine.MareNostrum4(), LignocelluloseRF())
	l := Layout{Nodes: 144, Ranks: 8 * 144, ThreadsPerRank: 6}
	ta, _ := ma.StepTime(l)
	tm, _ := mm.StepTime(l)
	if r := float64(ta) / float64(tm); r < 1.35 || r > 1.75 {
		t.Errorf("144-node slowdown = %.2f, paper ~1.5", r)
	}
}

// curves returns sweep's curve on CTE-Arm and on MareNostrum 4.
func curves(t *testing.T, sweep func(machine.Machine) ([]scaling.Series, error)) (cte, ref scaling.Series) {
	t.Helper()
	a, err := sweep(machine.CTEArm())
	if err != nil {
		t.Fatal(err)
	}
	m, err := sweep(machine.MareNostrum4())
	if err != nil {
		t.Fatal(err)
	}
	return a[0], m[0]
}

func TestFigure12And13Series(t *testing.T) {
	cte, ref := curves(t, SingleNodeSweepOn)
	if len(cte.Points) != 4 || len(ref.Points) != 4 {
		t.Fatalf("Fig12 point counts: %d/%d", len(cte.Points), len(ref.Points))
	}
	// days/ns decreases with cores on both machines.
	for _, s := range []scaling.Series{cte, ref} {
		pts := s.Sorted()
		for i := 1; i < len(pts); i++ {
			if pts[i].Time >= pts[i-1].Time {
				t.Errorf("%s: days/ns not decreasing at %d cores", s.Machine, pts[i].Nodes)
			}
		}
	}

	cte13, ref13 := curves(t, SweepOn)
	// The 2-node (16-rank) point breaks monotonicity on both machines.
	for _, s := range []scaling.Series{cte13, ref13} {
		t1, _ := s.TimeAt(1)
		t2, _ := s.TimeAt(2)
		t4, _ := s.TimeAt(4)
		if !(t2 > t4) || float64(t1)/float64(t2) > 1.5 {
			t.Errorf("%s: 16-rank anomaly not visible in Fig13 series", s.Machine)
		}
	}
}

func TestStepTimeValidation(t *testing.T) {
	mod, _ := NewModel(machine.CTEArm(), LignocelluloseRF())
	if _, err := mod.StepTime(Layout{Nodes: 0, Ranks: 1, ThreadsPerRank: 1}); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := mod.StepTime(Layout{Nodes: 1, Ranks: 0, ThreadsPerRank: 6}); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := mod.StepTime(Layout{Nodes: 1, Ranks: 9, ThreadsPerRank: 6}); err == nil {
		t.Error("oversubscribed layout accepted")
	}
	if _, err := mod.StepTime(Layout{Nodes: 1000, Ranks: 8, ThreadsPerRank: 6}); err == nil {
		t.Error("oversized node count accepted")
	}
}

func TestDaysPerNS(t *testing.T) {
	mod, _ := NewModel(machine.CTEArm(), LignocelluloseRF())
	// 2 fs steps: 500000 steps per ns. 1 ms per step = 500 s/ns = 5.787e-3 days.
	got := mod.DaysPerNS(1e-3)
	want := 1e-3 * 500000 / 86400
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("DaysPerNS = %v, want %v", got, want)
	}
}

func TestLayoutHelpers(t *testing.T) {
	l := Layout{Nodes: 2, Ranks: 12, ThreadsPerRank: 8}
	if l.Cores() != 96 || l.Label() != "12x8" {
		t.Errorf("layout helpers: %d %s", l.Cores(), l.Label())
	}
	if AlternativeLayout().Cores() != 96 {
		t.Error("alternative layout should use 96 cores")
	}
}
