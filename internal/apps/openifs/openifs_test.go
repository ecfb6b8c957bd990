package openifs

import (
	"math"
	"math/cmplx"
	"testing"

	"clustereval/internal/apps/scaling"
	"clustereval/internal/machine"
)

// --- Real spectral machinery ---

func TestFFTMatchesNaiveDFT(t *testing.T) {
	const n = 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Sin(float64(i)*0.7), math.Cos(float64(i)*1.3))
	}
	want := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k*j) / n
			want[k] += x[j] * cmplx.Exp(complex(0, ang))
		}
	}
	got := append([]complex128(nil), x...)
	if err := FFT(got); err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if cmplx.Abs(got[k]-want[k]) > 1e-9 {
			t.Fatalf("FFT[%d] = %v, DFT %v", k, got[k], want[k])
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 8, 256, 1024} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(float64(i%7)-3, float64(i%5))
		}
		orig := append([]complex128(nil), x...)
		if err := FFT(x); err != nil {
			t.Fatal(err)
		}
		if err := IFFT(x); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-10 {
				t.Fatalf("n=%d: round trip failed at %d", n, i)
			}
		}
	}
}

func TestFFTParseval(t *testing.T) {
	const n = 128
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Sin(0.3*float64(i)), 0)
	}
	timeE := 0.0
	for _, v := range x {
		timeE += real(v)*real(v) + imag(v)*imag(v)
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	freqE := 0.0
	for _, v := range x {
		freqE += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(freqE/float64(n)-timeE) > 1e-9*timeE {
		t.Errorf("Parseval violated: %v vs %v", freqE/float64(n), timeE)
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	if err := FFT(make([]complex128, 12)); err == nil {
		t.Error("length 12 accepted")
	}
	if err := FFT(nil); err == nil {
		t.Error("empty accepted")
	}
	if err := IFFT(make([]complex128, 3)); err == nil {
		t.Error("IFFT length 3 accepted")
	}
}

func TestSpectralDerivativeExact(t *testing.T) {
	// d/dx sin(2*pi*3x/L) = (6*pi/L) cos(...): spectral differentiation is
	// exact for resolved modes.
	const n = 64
	L := 2.0
	u := make([]float64, n)
	for i := range u {
		x := L * float64(i) / n
		u[i] = math.Sin(2 * math.Pi * 3 * x / L)
	}
	du, err := SpectralDerivative(u, L)
	if err != nil {
		t.Fatal(err)
	}
	for i := range du {
		x := L * float64(i) / n
		want := (2 * math.Pi * 3 / L) * math.Cos(2*math.Pi*3*x/L)
		if math.Abs(du[i]-want) > 1e-9 {
			t.Fatalf("derivative at %d: %v, want %v", i, du[i], want)
		}
	}
	if _, err := SpectralDerivative(u, 0); err == nil {
		t.Error("zero-length domain accepted")
	}
}

func TestSpectralSolverAdvectsAndDecays(t *testing.T) {
	// u_t + a u_x = nu u_xx with u0 = sin(kx) has the exact solution
	// exp(-nu k^2 t) sin(k(x - a t)).
	const n = 128
	L := 2 * math.Pi
	a, nu := 1.5, 0.02
	u0 := make([]float64, n)
	for i := range u0 {
		x := L * float64(i) / n
		u0[i] = math.Sin(2 * x)
	}
	s, err := NewSpectralSolver(u0, L, a, nu)
	if err != nil {
		t.Fatal(err)
	}
	const dt, steps = 0.01, 150
	for i := 0; i < steps; i++ {
		s.Step(dt)
	}
	u, err := s.Grid()
	if err != nil {
		t.Fatal(err)
	}
	tt := dt * steps
	for i := range u {
		x := L * float64(i) / n
		want := math.Exp(-nu*4*tt) * math.Sin(2*(x-a*tt))
		if math.Abs(u[i]-want) > 1e-9 {
			t.Fatalf("solution at %d: %v, want %v", i, u[i], want)
		}
	}
}

func TestSpectralSolverValidation(t *testing.T) {
	if _, err := NewSpectralSolver(make([]float64, 12), 1, 1, 0.1); err == nil {
		t.Error("non-power-of-two accepted")
	}
	if _, err := NewSpectralSolver(make([]float64, 8), -1, 1, 0.1); err == nil {
		t.Error("negative domain accepted")
	}
	if _, err := NewSpectralSolver(make([]float64, 8), 1, 1, -0.1); err == nil {
		t.Error("negative diffusion accepted")
	}
}

// --- Paper-scale model ---

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
