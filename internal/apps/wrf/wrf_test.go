package wrf

import (
	"bytes"
	"math"
	"testing"

	"clustereval/internal/apps/scaling"
	"clustereval/internal/machine"
)

// --- Real dynamics + IO proxy ---

func TestLaxWendroffAdvectsSine(t *testing.T) {
	const n = 256
	L := 1.0
	d, err := NewDomain(n, L, 0.5, 0.8, func(x float64) float64 {
		return math.Sin(2 * math.Pi * x)
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := 200
	for i := 0; i < steps; i++ {
		d.Step()
	}
	tt := float64(steps) * d.Dt()
	maxErr := 0.0
	for i := range d.U {
		x := L * float64(i) / n
		want := math.Sin(2 * math.Pi * (x - 0.5*tt))
		if e := math.Abs(d.U[i] - want); e > maxErr {
			maxErr = e
		}
	}
	// Second-order scheme on a well-resolved sine: small phase error.
	if maxErr > 0.02 {
		t.Errorf("max error = %v", maxErr)
	}
}

func TestLaxWendroffSecondOrder(t *testing.T) {
	errAt := func(n int) float64 {
		d, _ := NewDomain(n, 1, 1, 0.5, func(x float64) float64 {
			return math.Sin(2 * math.Pi * x)
		})
		// Advect exactly one period: u should return to the start.
		steps := int(math.Round(1 / (d.Dt() * d.A)))
		for i := 0; i < steps; i++ {
			d.Step()
		}
		max := 0.0
		for i := range d.U {
			x := float64(i) / float64(n)
			if e := math.Abs(d.U[i] - math.Sin(2*math.Pi*x)); e > max {
				max = e
			}
		}
		return max
	}
	e1, e2 := errAt(64), errAt(128)
	order := math.Log2(e1 / e2)
	if order < 1.6 || order > 2.6 {
		t.Errorf("convergence order = %.2f, want ~2", order)
	}
}

func TestLaxWendroffStableAtCFL1(t *testing.T) {
	d, _ := NewDomain(64, 1, 1, 1.0, func(x float64) float64 {
		if x < 0.5 {
			return 1
		}
		return 0
	})
	for i := 0; i < 500; i++ {
		d.Step()
	}
	for i, v := range d.U {
		if math.IsNaN(v) || math.Abs(v) > 2 {
			t.Fatalf("instability at %d: %v", i, v)
		}
	}
}

func TestDomainValidation(t *testing.T) {
	f := func(x float64) float64 { return 0 }
	if _, err := NewDomain(2, 1, 1, 0.5, f); err == nil {
		t.Error("tiny grid accepted")
	}
	if _, err := NewDomain(16, -1, 1, 0.5, f); err == nil {
		t.Error("negative length accepted")
	}
	if _, err := NewDomain(16, 1, 1, 1.5, f); err == nil {
		t.Error("unstable CFL accepted")
	}
	if _, err := NewDomain(16, 1, 1, 0, f); err == nil {
		t.Error("zero CFL accepted")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	d, _ := NewDomain(32, 2, -0.7, 0.9, func(x float64) float64 { return math.Cos(x) })
	d.Step()
	d.Step()
	var buf bytes.Buffer
	if err := d.WriteFrame(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.N != 32 || f.Step != 2 || f.L != 2 || f.A != -0.7 {
		t.Errorf("frame metadata: %+v", f)
	}
	for i := range f.U {
		if f.U[i] != d.U[i] {
			t.Fatalf("frame payload mismatch at %d", i)
		}
	}
}

func TestReadFrameErrors(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
	bad := make([]byte, 64)
	if _, err := ReadFrame(bytes.NewReader(bad)); err == nil {
		t.Error("garbage magic accepted")
	}
}

func TestRunWithIO(t *testing.T) {
	d, _ := NewDomain(16, 1, 1, 0.5, func(x float64) float64 { return x })
	var buf bytes.Buffer
	frames, err := d.RunWithIO(56, 10, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if frames != 5 {
		t.Errorf("frames = %d, want 5", frames)
	}
	// All frames parse back in order.
	r := bytes.NewReader(buf.Bytes())
	for i := 1; i <= 5; i++ {
		f, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Step != uint64(i*10) {
			t.Errorf("frame %d at step %d", i, f.Step)
		}
	}
	// IO-disabled run writes nothing.
	d2, _ := NewDomain(16, 1, 1, 0.5, func(x float64) float64 { return x })
	frames, err = d2.RunWithIO(56, 10, nil)
	if err != nil || frames != 0 {
		t.Errorf("nil writer: frames=%d err=%v", frames, err)
	}
	if _, err := d2.RunWithIO(-1, 10, nil); err == nil {
		t.Error("negative steps accepted")
	}
	if _, err := d2.RunWithIO(5, 0, nil); err == nil {
		t.Error("zero frame interval accepted")
	}
}

// --- Paper-scale model ---

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
