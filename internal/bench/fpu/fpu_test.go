package fpu

import (
	"math"
	"testing"
	"time"

	"clustereval/internal/machine"
	"clustereval/internal/simdvec"
)

func TestFigure1Shape(t *testing.T) {
	machines := []machine.Machine{machine.CTEArm(), machine.MareNostrum4()}
	bars, err := Figure1(machines, 2000)
	if err != nil {
		t.Fatal(err)
	}
	// 6 variants x 2 machines.
	if len(bars) != 12 {
		t.Fatalf("%d bars, want 12", len(bars))
	}

	byKey := map[string]Bar{}
	for _, b := range bars {
		byKey[b.Machine+"/"+b.Variant.Name()] = b
	}

	// Paper anchor points (theoretical peaks, sustained ~matching).
	anchors := []struct {
		key  string
		peak float64 // GFlop/s
	}{
		{"CTE-Arm/vector-double", 70.4},
		{"CTE-Arm/vector-single", 140.8},
		{"CTE-Arm/vector-half", 281.6},
		{"MareNostrum 4/vector-double", 67.2},
		{"MareNostrum 4/vector-single", 134.4},
		{"CTE-Arm/scalar-double", 8.8},
		{"MareNostrum 4/scalar-double", 8.4},
	}
	for _, a := range anchors {
		b, ok := byKey[a.key]
		if !ok || !b.Supported {
			t.Errorf("missing bar %s", a.key)
			continue
		}
		if math.Abs(b.Peak.Giga()-a.peak) > 1e-9 {
			t.Errorf("%s peak = %v, want %v", a.key, b.Peak.Giga(), a.peak)
		}
		// "Measurements match almost perfectly with the theoretical values."
		if b.PercentOfPeak < 98.5 || b.PercentOfPeak > 100 {
			t.Errorf("%s percent = %.2f, want ~99+", a.key, b.PercentOfPeak)
		}
	}

	// Skylake has no half-precision bars.
	for _, v := range []string{"scalar-half", "vector-half"} {
		if byKey["MareNostrum 4/"+v].Supported {
			t.Errorf("MN4 %s should be unsupported", v)
		}
	}

	// A64FX vector bars beat the corresponding MN4 bars (higher peak).
	for _, prec := range []string{"double", "single"} {
		arm := byKey["CTE-Arm/vector-"+prec]
		mn4 := byKey["MareNostrum 4/vector-"+prec]
		if arm.Sustained <= mn4.Sustained {
			t.Errorf("vector-%s: CTE %v should beat MN4 %v", prec, arm.Sustained, mn4.Sustained)
		}
	}

	// Checksums prove the kernels really executed.
	for _, b := range bars {
		if b.Supported && b.Checksum == 0 {
			t.Errorf("%s/%s has zero checksum", b.Machine, b.Variant.Name())
		}
	}
}

func TestFigure1Errors(t *testing.T) {
	if _, err := Figure1(nil, 0); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestNodeVariabilityNegligible(t *testing.T) {
	for _, m := range []machine.Machine{machine.CTEArm(), machine.MareNostrum4()} {
		cv, err := NodeVariability(m, 2000, 1)
		if err != nil {
			t.Fatal(err)
		}
		// The paper verified there is no within-node variability.
		if cv > 0.01 {
			t.Errorf("%s within-node cv = %.4f, want < 1%%", m.Name, cv)
		}
		if cv == 0 {
			t.Errorf("%s cv exactly zero — noise model not applied", m.Name)
		}
	}
}

func TestClusterVariabilityNegligible(t *testing.T) {
	m := machine.CTEArm()
	cv, err := ClusterVariability(m, 192, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cv > 0.01 {
		t.Errorf("across-node cv = %.4f, want < 1%%", cv)
	}
}

func TestClusterVariabilityErrors(t *testing.T) {
	m := machine.CTEArm()
	if _, err := ClusterVariability(m, 0, 100, 1); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := ClusterVariability(m, 500, 100, 1); err == nil {
		t.Error("more nodes than the cluster accepted")
	}
}

func TestDeterministic(t *testing.T) {
	m := []machine.Machine{machine.CTEArm()}
	a, err := Figure1(m, 500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure1(m, 500)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Sustained != b[i].Sustained || a[i].Checksum != b[i].Checksum {
			t.Fatalf("bar %d differs between runs", i)
		}
	}
}

func TestVariantOrderMatchesFigure(t *testing.T) {
	bars, err := Figure1([]machine.Machine{machine.CTEArm()}, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"scalar-half", "scalar-single", "scalar-double",
		"vector-half", "vector-single", "vector-double"}
	for i, b := range bars {
		if b.Variant.Name() != want[i] {
			t.Errorf("bar %d = %s, want %s", i, b.Variant.Name(), want[i])
		}
	}
	_ = simdvec.Variants()
}

// TestFigure1HugeIterationCountReturns guards fpu jobs against running for
// hours: a job's deadline abandons the run without stopping it, so the
// µKernel must stop on its own at its fixed point. Figure1 at
// math.MaxInt32 iterations has to return within seconds, with the
// checksums of Fig. 1's 20,000-iteration run. It runs behind a timer so a
// regression fails the test instead of hanging it.
func TestFigure1HugeIterationCountReturns(t *testing.T) {
	machines := []machine.Machine{machine.CTEArm(), machine.MareNostrum4(), machine.ThunderX2(), machine.Fugaku()}
	want, err := Figure1(machines, DefaultIterations)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		bars []Bar
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		bars, err := Figure1(machines, math.MaxInt32)
		done <- outcome{bars, err}
	}()
	timer := time.NewTimer(10 * time.Second)
	defer timer.Stop()
	var got outcome
	select {
	case got = <-done:
	case <-timer.C:
		t.Fatal("Figure1 at math.MaxInt32 iterations still running after 10 s")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	if len(got.bars) != len(want) {
		t.Fatalf("%d bars, want %d", len(got.bars), len(want))
	}
	for i, b := range got.bars {
		if math.Float64bits(b.Checksum) != math.Float64bits(want[i].Checksum) {
			t.Errorf("%s/%s checksum %v, want the 20,000-iteration %v",
				b.Machine, b.Variant.Name(), b.Checksum, want[i].Checksum)
		}
	}
}
