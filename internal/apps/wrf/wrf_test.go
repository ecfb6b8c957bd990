package wrf

import (
	"math"
	"testing"

	"clustereval/internal/apps/scaling"
	"clustereval/internal/machine"
)

func TestFig16Anchors(t *testing.T) {
	ma, err := NewModel(machine.CTEArm(), Iberia4km())
	if err != nil {
		t.Fatal(err)
	}
	mm, err := NewModel(machine.MareNostrum4(), Iberia4km())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 2.16x slower at 1 node, 2.23x at 64 nodes (IO enabled).
	ta1, _ := ma.ElapsedTime(1, true)
	tm1, _ := mm.ElapsedTime(1, true)
	if r := float64(ta1) / float64(tm1); math.Abs(r-2.16) > 0.1 {
		t.Errorf("1-node slowdown = %.2f, paper 2.16", r)
	}
	ta64, _ := ma.ElapsedTime(64, true)
	tm64, _ := mm.ElapsedTime(64, true)
	if r := float64(ta64) / float64(tm64); math.Abs(r-2.23) > 0.12 {
		t.Errorf("64-node slowdown = %.2f, paper 2.23", r)
	}
}

func TestIOMakesLittleDifference(t *testing.T) {
	// "There is little difference in time between the runs that enable IO
	// and the runs that do not, giving the runs with IO disabled a slight
	// advantage."
	for _, m := range []machine.Machine{machine.CTEArm(), machine.MareNostrum4()} {
		mod, err := NewModel(m, Iberia4km())
		if err != nil {
			t.Fatal(err)
		}
		for _, nodes := range NodeSweep() {
			on, _ := mod.ElapsedTime(nodes, true)
			off, _ := mod.ElapsedTime(nodes, false)
			if on <= off {
				t.Errorf("%s nodes=%d: IO-enabled %v not above IO-disabled %v",
					m.Name, nodes, on, off)
			}
			if rel := (float64(on) - float64(off)) / float64(off); rel > 0.10 {
				t.Errorf("%s nodes=%d: IO adds %.1f%%, paper sees little difference",
					m.Name, nodes, 100*rel)
			}
		}
	}
}

func TestMN4ConsistentlyOutperforms(t *testing.T) {
	var series []scaling.Series
	for _, m := range []machine.Machine{machine.CTEArm(), machine.MareNostrum4()} {
		s, err := SweepOn(m)
		if err != nil {
			t.Fatal(err)
		}
		series = append(series, s...)
	}
	if len(series) != 4 {
		t.Fatalf("%d series, want 4", len(series))
	}
	// Match IO-enabled curves of the two machines.
	var cte, mn4 *int
	for i := range series {
		if series[i].Label == "IO enabled" {
			if series[i].Machine == "CTE-Arm" {
				cte = &i
			} else {
				i := i
				mn4 = &i
			}
		}
	}
	if cte == nil || mn4 == nil {
		t.Fatal("missing IO-enabled series")
	}
	for _, n := range NodeSweep() {
		ta, _ := series[*cte].TimeAt(n)
		tm, _ := series[*mn4].TimeAt(n)
		if ta <= tm {
			t.Errorf("nodes=%d: MN4 not outperforming (%v vs %v)", n, tm, ta)
		}
	}
}

func TestScalingMonotone(t *testing.T) {
	mod, _ := NewModel(machine.CTEArm(), Iberia4km())
	prev := math.Inf(1)
	for _, n := range NodeSweep() {
		tt, err := mod.ElapsedTime(n, false)
		if err != nil {
			t.Fatal(err)
		}
		if float64(tt) >= prev {
			t.Errorf("time not decreasing at %d nodes", n)
		}
		prev = float64(tt)
	}
}

func TestElapsedTimeValidation(t *testing.T) {
	mod, _ := NewModel(machine.CTEArm(), Iberia4km())
	if _, err := mod.ElapsedTime(0, true); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := mod.ElapsedTime(500, true); err == nil {
		t.Error("oversized accepted")
	}
	m := machine.CTEArm()
	m.Name = "x"
	m.CPUName = "POWER9"
	m.Arch = "POWER"
	if _, err := NewModel(m, Iberia4km()); err == nil {
		t.Error("machine with unknown silicon accepted")
	}
}

func TestSqrtHelper(t *testing.T) {
	for _, x := range []float64{1, 2, 73.8, 1e6} {
		if got := sqrt(x); math.Abs(got-math.Sqrt(x)) > 1e-9*math.Sqrt(x) {
			t.Errorf("sqrt(%v) = %v", x, got)
		}
	}
	if sqrt(0) != 0 || sqrt(-1) != 0 {
		t.Error("sqrt edge cases")
	}
}
