package nemo

import (
	"math"
	"testing"

	"clustereval/internal/apps/scaling"
	"clustereval/internal/interconnect"
	"clustereval/internal/machine"
	"clustereval/internal/mpisim"
)

// --- Real ocean proxy ---

func gauss(f *Field) {
	for j := 0; j < f.NY; j++ {
		for i := 0; i < f.NX; i++ {
			dx := float64(i-f.NX/2) / float64(f.NX)
			dy := float64(j-f.NY/2) / float64(f.NY)
			f.Set(i, j, math.Exp(-40*(dx*dx+dy*dy)))
		}
	}
}

func TestMassConservation(t *testing.T) {
	f, err := NewField(32, 24)
	if err != nil {
		t.Fatal(err)
	}
	gauss(f)
	m0 := f.Mass()
	out, err := RunSerial(f, Params{U: 0.4, V: -0.3, Kappa: 0.1}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Mass()-m0) > 1e-9*math.Abs(m0) {
		t.Errorf("mass not conserved: %v -> %v", m0, out.Mass())
	}
}

func TestDiffusionSmooths(t *testing.T) {
	f, _ := NewField(16, 16)
	f.Set(8, 8, 100)
	out, err := RunSerial(f, Params{Kappa: 0.2}, 30)
	if err != nil {
		t.Fatal(err)
	}
	max := 0.0
	for _, v := range out.Data {
		if v < -1e-12 {
			t.Fatalf("diffusion produced negative tracer %v", v)
		}
		if v > max {
			max = v
		}
	}
	if max > 10 {
		t.Errorf("peak %v did not smooth out", max)
	}
}

func TestAdvectionMovesPeak(t *testing.T) {
	f, _ := NewField(32, 8)
	f.Set(4, 4, 1)
	// Pure advection at u=1 moves the peak exactly one cell per step.
	out, err := RunSerial(f, Params{U: 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(14, 4) != 1 {
		t.Errorf("peak not at (14,4): %v", out.At(14, 4))
	}
	if out.At(4, 4) != 0 {
		t.Errorf("origin not emptied: %v", out.At(4, 4))
	}
}

func TestPeriodicWrap(t *testing.T) {
	f, _ := NewField(8, 8)
	f.Set(7, 3, 1)
	out, err := RunSerial(f, Params{U: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(1, 3) != 1 {
		t.Error("advection did not wrap periodically")
	}
}

func TestParamValidation(t *testing.T) {
	for _, p := range []Params{{U: 1.5}, {V: -2}, {Kappa: 0.3}, {Kappa: -0.1}} {
		if p.Validate() == nil {
			t.Errorf("unstable params accepted: %+v", p)
		}
	}
	if _, err := NewField(2, 8); err == nil {
		t.Error("tiny grid accepted")
	}
}

func TestDistributedMatchesSerial(t *testing.T) {
	fab, err := interconnect.NewTofuD(machine.CTEArm(), 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 2, 5, 8} {
		w, err := mpisim.NewWorld(fab, ranks, 4)
		if err != nil {
			t.Fatal(err)
		}
		f, _ := NewField(24, 17)
		gauss(f)
		p := Params{U: 0.5, V: 0.25, Kappa: 0.12}
		const steps = 12
		serial, err := RunSerial(f, p, steps)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := RunDistributed(w, f, p, steps)
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		for i := range serial.Data {
			if serial.Data[i] != dist.Data[i] {
				t.Fatalf("ranks=%d: mismatch at %d: %v vs %v",
					ranks, i, serial.Data[i], dist.Data[i])
			}
		}
	}
}

func TestDistributedErrors(t *testing.T) {
	fab, _ := interconnect.NewTofuD(machine.CTEArm(), 12)
	w, _ := mpisim.NewWorld(fab, 10, 4)
	f, _ := NewField(8, 4) // 4 rows cannot split over 10 ranks
	if _, err := RunDistributed(w, f, Params{Kappa: 0.1}, 2); err == nil {
		t.Error("over-decomposition accepted")
	}
	if _, err := RunDistributed(w, f, Params{Kappa: 0.9}, 2); err == nil {
		t.Error("unstable params accepted")
	}
}

// --- Paper-scale model ---

func TestMemoryFloor8Nodes(t *testing.T) {
	ma, err := NewModel(machine.CTEArm(), BenchORCA1())
	if err != nil {
		t.Fatal(err)
	}
	if got := ma.MinNodes(); got != 8 {
		t.Errorf("CTE-Arm floor = %d nodes, paper: 8", got)
	}
	mm, err := NewModel(machine.MareNostrum4(), BenchORCA1())
	if err != nil {
		t.Fatal(err)
	}
	if got := mm.MinNodes(); got != 1 {
		t.Errorf("MN4 floor = %d nodes, paper runs from 1", got)
	}
	if _, err := ma.ExecutionTime(4); err == nil {
		t.Error("below-floor run accepted")
	}
	if _, err := ma.ExecutionTime(500); err == nil {
		t.Error("oversized run accepted")
	}
}

// curves returns the Fig. 11 sweep on CTE-Arm and on MareNostrum 4.
func curves(t *testing.T) (cte, ref scaling.Series) {
	t.Helper()
	a, err := SweepOn(machine.CTEArm())
	if err != nil {
		t.Fatal(err)
	}
	m, err := SweepOn(machine.MareNostrum4())
	if err != nil {
		t.Fatal(err)
	}
	return a[0], m[0]
}

func TestFig11SlowdownBand(t *testing.T) {
	// Paper: MN4 performance is between 1.70x and 1.79x higher.
	cte, ref := curves(t)
	for _, nodes := range []int{8, 12, 16, 24} {
		s, err := scaling.Slowdown(cte, ref, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if s < 1.60 || s > 1.90 {
			t.Errorf("nodes=%d: slowdown %.2f, paper band [1.70, 1.79]", nodes, s)
		}
	}
}

func TestFig11Equivalence48to27(t *testing.T) {
	// Paper: 48 A64FX nodes match 27 MareNostrum 4 nodes.
	cte, ref := curves(t)
	t48, ok := cte.TimeAt(48)
	if !ok {
		t.Fatal("no 48-node point")
	}
	t27, ok := ref.TimeAt(27)
	if !ok {
		t.Fatal("no 27-node point")
	}
	ratio := float64(t48) / float64(t27)
	if ratio < 0.85 || ratio > 1.18 {
		t.Errorf("48 CTE vs 27 MN4 time ratio = %.2f, paper ~1.0", ratio)
	}
}

func TestFig11FlatteningAt128(t *testing.T) {
	// Paper: CTE-Arm scalability flattens around 128 nodes.
	cte, _ := curves(t)
	t64, _ := cte.TimeAt(64)
	t128, _ := cte.TimeAt(128)
	t192, _ := cte.TimeAt(192)
	// 64 -> 128 doubles resources: decent gain expected.
	gainEarly := float64(t64) / float64(t128)
	// 128 -> 192 is a 1.5x resource increase: gain must be clearly
	// sub-proportional (flattening).
	gainLate := float64(t128) / float64(t192)
	if gainEarly < 1.3 {
		t.Errorf("64->128 gain %.2f too weak", gainEarly)
	}
	if gainLate > 1.25 {
		t.Errorf("128->192 gain %.2f — curve should flatten near 128", gainLate)
	}
}

func TestTableIVNemoRow(t *testing.T) {
	// Table IV NEMO at 16 nodes: 0.56.
	cte, ref := curves(t)
	tA, _ := cte.TimeAt(16)
	tM, _ := ref.TimeAt(16)
	got := float64(tM) / float64(tA)
	if math.Abs(got-0.56) > 0.05 {
		t.Errorf("speedup at 16 nodes = %.3f, paper 0.56", got)
	}
}

func TestModelRejectsUnknownMachine(t *testing.T) {
	m := machine.CTEArm()
	m.Name = "nope"
	m.CPUName = "POWER9"
	m.Arch = "POWER"
	if _, err := NewModel(m, BenchORCA1()); err == nil {
		t.Error("machine with unknown silicon accepted")
	}
}
