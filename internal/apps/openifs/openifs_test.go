package openifs

import (
	"math"
	"testing"

	"clustereval/internal/apps/scaling"
	"clustereval/internal/machine"
)

func TestFig14SingleNodeAnchors(t *testing.T) {
	ma, err := NewModel(machine.CTEArm(), TL255L91())
	if err != nil {
		t.Fatal(err)
	}
	mm, err := NewModel(machine.MareNostrum4(), TL255L91())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: with 8 ranks CTE-Arm is 3.72x slower; full node 3.28x.
	ta8, err := ma.DayTime(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	tm8, _ := mm.DayTime(1, 8)
	if r := float64(ta8) / float64(tm8); math.Abs(r-3.72) > 0.15 {
		t.Errorf("8-rank slowdown = %.2f, paper 3.72", r)
	}
	ta48, _ := ma.DayTime(1, 48)
	tm48, _ := mm.DayTime(1, 48)
	if r := float64(ta48) / float64(tm48); math.Abs(r-3.28) > 0.12 {
		t.Errorf("full-node slowdown = %.2f, paper 3.28", r)
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

func TestFig15MultiNodeAnchors(t *testing.T) {
	cte, ref := curves(t, SweepOn)
	// Paper: 3.55x at 32 nodes, 2.56x at 128.
	s32, err := scaling.Slowdown(cte, ref, 32)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s32-3.55) > 0.15 {
		t.Errorf("32-node slowdown = %.2f, paper 3.55", s32)
	}
	s128, err := scaling.Slowdown(cte, ref, 128)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s128-2.56) > 0.12 {
		t.Errorf("128-node slowdown = %.2f, paper 2.56", s128)
	}
	// The gap narrows monotonically with scale (CTE profits from Tofu as
	// transpositions become latency-bound).
	if !(s128 < s32) {
		t.Error("gap should narrow with node count")
	}
}

func TestMemoryFloor32Nodes(t *testing.T) {
	ma, _ := NewModel(machine.CTEArm(), TC0511L91())
	if got := ma.MinNodes(); got != 32 {
		t.Errorf("TC0511L91 floor = %d CTE nodes, paper: 32", got)
	}
	// Table IV marks 16 nodes NP.
	if _, err := ma.DayTime(16, 16*48); err == nil {
		t.Error("16-node run accepted below the floor")
	}
	// TL255 fits on one node of either machine.
	ms, _ := NewModel(machine.CTEArm(), TL255L91())
	if got := ms.MinNodes(); got != 1 {
		t.Errorf("TL255L91 floor = %d, want 1", got)
	}
}

func TestTableIVOpenIFSRow(t *testing.T) {
	// Row: 0.31 (1 node, TL255), NP (16), 0.28 (32), 0.31 (64), 0.39 (128).
	maS, _ := NewModel(machine.CTEArm(), TL255L91())
	mmS, _ := NewModel(machine.MareNostrum4(), TL255L91())
	ta, _ := maS.DayTime(1, 48)
	tm, _ := mmS.DayTime(1, 48)
	if got := float64(tm) / float64(ta); math.Abs(got-0.31) > 0.02 {
		t.Errorf("1-node speedup = %.3f, paper 0.31", got)
	}

	maM, _ := NewModel(machine.CTEArm(), TC0511L91())
	mmM, _ := NewModel(machine.MareNostrum4(), TC0511L91())
	for _, c := range []struct {
		nodes int
		want  float64
	}{
		{32, 0.28}, {64, 0.31}, {128, 0.39},
	} {
		ta, err := maM.DayTime(c.nodes, c.nodes*48)
		if err != nil {
			t.Fatal(err)
		}
		tm, _ := mmM.DayTime(c.nodes, c.nodes*48)
		got := float64(tm) / float64(ta)
		if math.Abs(got-c.want) > 0.025 {
			t.Errorf("nodes=%d: speedup %.3f, paper %.2f", c.nodes, got, c.want)
		}
	}
}

func TestDayTimeValidation(t *testing.T) {
	mod, _ := NewModel(machine.CTEArm(), TL255L91())
	if _, err := mod.DayTime(1, 0); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := mod.DayTime(1, 49); err == nil {
		t.Error("oversubscription accepted")
	}
	if _, err := mod.DayTime(500, 500); err == nil {
		t.Error("oversized accepted")
	}
}

func TestFigure14SeriesShape(t *testing.T) {
	cte, ref := curves(t, SingleNodeSweepOn)
	for _, s := range []scaling.Series{cte, ref} {
		pts := s.Sorted()
		if len(pts) != 6 {
			t.Fatalf("%s: %d points", s.Machine, len(pts))
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Time >= pts[i-1].Time {
				t.Errorf("%s: time not decreasing with ranks", s.Machine)
			}
		}
	}
}

func TestModelRejectsUnknownMachine(t *testing.T) {
	m := machine.CTEArm()
	m.Name = "x"
	m.CPUName = "POWER9"
	m.Arch = "POWER"
	if _, err := NewModel(m, TL255L91()); err == nil {
		t.Error("machine with unknown silicon accepted")
	}
}
