package simdvec

import (
	"math"
	"testing"
	"testing/quick"

	"clustereval/internal/machine"
	"clustereval/internal/omp"
)

func TestF16RoundTripExactValues(t *testing.T) {
	// Values exactly representable in binary16 must round-trip.
	for _, f := range []float32{0, 1, -1, 0.5, 0.25, 1.5, 2, 1024, -3.75, 65504} {
		h := F16FromFloat32(f)
		if got := h.Float32(); got != f {
			t.Errorf("round trip %v -> %v", f, got)
		}
	}
}

func TestF16Specials(t *testing.T) {
	inf := float32(math.Inf(1))
	if F16FromFloat32(inf).Float32() != inf {
		t.Error("+Inf")
	}
	if F16FromFloat32(-inf).Float32() != float32(math.Inf(-1)) {
		t.Error("-Inf")
	}
	if !math.IsNaN(float64(F16FromFloat32(float32(math.NaN())).Float32())) {
		t.Error("NaN")
	}
	// Overflow to Inf: 65520 rounds up past the max finite 65504.
	if F16FromFloat32(70000).Float32() != inf {
		t.Error("overflow should give +Inf")
	}
	// Underflow to zero.
	if F16FromFloat32(1e-9).Float32() != 0 {
		t.Error("tiny value should flush to zero through rounding")
	}
	// Negative zero keeps its sign.
	if math.Signbit(float64(F16FromFloat32(float32(math.Copysign(0, -1))).Float32())) != true {
		t.Error("-0 sign lost")
	}
}

func TestF16Subnormals(t *testing.T) {
	// Smallest positive subnormal is 2^-24.
	sub := float32(math.Ldexp(1, -24))
	h := F16FromFloat32(sub)
	if h != 0x0001 {
		t.Errorf("2^-24 encodes as %#04x, want 0x0001", uint16(h))
	}
	if h.Float32() != sub {
		t.Errorf("subnormal decode = %v, want %v", h.Float32(), sub)
	}
	// Largest subnormal: (1023/1024) * 2^-14.
	maxSub := float32(math.Ldexp(1023.0/1024.0, -14))
	h = F16FromFloat32(maxSub)
	if h != 0x03ff {
		t.Errorf("max subnormal encodes as %#04x", uint16(h))
	}
}

func TestF16RoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly between 1.0 and 1+2^-10: ties go to even (1.0).
	f := float32(1 + math.Ldexp(1, -11))
	if got := F16FromFloat32(f); got != F16FromFloat32(1) {
		t.Errorf("tie did not round to even: %#04x", uint16(got))
	}
	// 1 + 3*2^-11 is between 1+2^-10 and 1+2^-9: tie rounds to even (1+2^-9).
	f = float32(1 + 3*math.Ldexp(1, -11))
	want := F16FromFloat32(float32(1 + math.Ldexp(1, -9)))
	if got := F16FromFloat32(f); got != want {
		t.Errorf("tie rounding: got %#04x want %#04x", uint16(got), uint16(want))
	}
}

// Property: decode(encode(x)) is within half an ULP of x for normal-range
// values, and encode is monotone.
func TestF16RoundingProperty(t *testing.T) {
	f := func(raw uint16) bool {
		x := float32(raw)/65535*100 - 50 // [-50, 50]
		h := F16FromFloat32(x)
		back := float64(h.Float32())
		// binary16 has 11 significand bits: relative error <= 2^-11.
		return math.Abs(back-float64(x)) <= math.Abs(float64(x))/2048+1e-7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestF16EncodeMonotone(t *testing.T) {
	prev := F16FromFloat32(0).Float32()
	for i := 1; i <= 10000; i++ {
		x := float32(i) * 0.37
		cur := F16FromFloat32(x).Float32()
		if cur < prev {
			t.Fatalf("encode not monotone at %v", x)
		}
		prev = cur
	}
}

func TestVariants(t *testing.T) {
	vs := Variants()
	if len(vs) != 6 {
		t.Fatalf("µKernel has %d variants, want 6", len(vs))
	}
	names := map[string]bool{}
	for _, v := range vs {
		names[v.Name()] = true
	}
	for _, want := range []string{"scalar-half", "scalar-single", "scalar-double",
		"vector-half", "vector-single", "vector-double"} {
		if !names[want] {
			t.Errorf("missing variant %s", want)
		}
	}
}

func TestTheoreticalPeaksA64FX(t *testing.T) {
	core := machine.CTEArm().Node.Core
	cases := []struct {
		v    Variant
		want float64 // GFlop/s
	}{
		{Variant{false, machine.Double}, 8.8},
		{Variant{false, machine.Single}, 8.8},
		{Variant{true, machine.Double}, 70.4},
		{Variant{true, machine.Single}, 140.8},
		{Variant{true, machine.Half}, 281.6},
	}
	for _, c := range cases {
		k, err := NewKernel(core, c.v)
		if err != nil {
			t.Fatalf("%s: %v", c.v.Name(), err)
		}
		if got := k.TheoreticalPeak().Giga(); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s peak = %v GF, want %v", c.v.Name(), got, c.want)
		}
	}
}

func TestSkylakeHasNoHalf(t *testing.T) {
	core := machine.MareNostrum4().Node.Core
	if _, err := NewKernel(core, Variant{true, machine.Half}); err == nil {
		t.Error("Skylake vector-half accepted")
	}
	if _, err := NewKernel(core, Variant{false, machine.Half}); err == nil {
		t.Error("Skylake scalar-half accepted")
	}
}

func TestRunSustainedNearPeak(t *testing.T) {
	// Fig. 1: sustained matches theoretical almost perfectly.
	for _, core := range []machine.Core{machine.CTEArm().Node.Core, machine.MareNostrum4().Node.Core} {
		for _, v := range Variants() {
			k, err := NewKernel(core, v)
			if err != nil {
				continue // unsupported variant (half on Skylake)
			}
			res, err := k.Run(5000)
			if err != nil {
				t.Fatalf("%s: %v", v.Name(), err)
			}
			eff := k.Efficiency(res)
			if eff < 0.985 || eff > 1.0 {
				t.Errorf("%s efficiency = %.4f, want ~0.99+", v.Name(), eff)
			}
		}
	}
}

func TestRunChecksumStableAndPrecisionDependent(t *testing.T) {
	core := machine.CTEArm().Node.Core
	k64, _ := NewKernel(core, Variant{true, machine.Double})
	k32, _ := NewKernel(core, Variant{true, machine.Single})

	a, _ := k64.Run(100)
	b, _ := k64.Run(100)
	if a.Checksum != b.Checksum {
		t.Error("double checksum not deterministic")
	}
	c, _ := k32.Run(100)
	// Same math at different precision must differ (different lane count
	// and rounding) — catching a kernel that ignores precision.
	if a.Checksum == c.Checksum {
		t.Error("single and double checksums identical; precision ignored")
	}
	if math.IsNaN(a.Checksum) || math.IsInf(a.Checksum, 0) {
		t.Errorf("checksum degenerate: %v", a.Checksum)
	}
}

func TestHalfKernelRuns(t *testing.T) {
	core := machine.CTEArm().Node.Core
	k, err := NewKernel(core, Variant{true, machine.Half})
	if err != nil {
		t.Fatal(err)
	}
	res, err := k.Run(200)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Checksum) || res.Checksum == 0 {
		t.Errorf("half checksum = %v", res.Checksum)
	}
	// 32 lanes x 16 chains x 2 flops x 200 iters.
	want := 32.0 * 16 * 2 * 200
	if res.Flops != want {
		t.Errorf("half flops = %v, want %v", res.Flops, want)
	}
}

func TestRunErrors(t *testing.T) {
	core := machine.CTEArm().Node.Core
	k, _ := NewKernel(core, Variant{true, machine.Double})
	if _, err := k.Run(0); err == nil {
		t.Error("zero iterations accepted")
	}
	if _, err := k.Run(-3); err == nil {
		t.Error("negative iterations accepted")
	}
}

func TestRunParallelAllThreadsIdentical(t *testing.T) {
	// The multithreaded µKernel: every thread runs the same register-only
	// kernel, so results are identical across threads (the paper's "no
	// variability within a node" at the model level — the OS-noise wiggle
	// is applied by bench/fpu, not here).
	core := machine.CTEArm().Node.Core
	k, err := NewKernel(core, Variant{Vector: true, Precision: machine.Double})
	if err != nil {
		t.Fatal(err)
	}
	team, err := omp.NewTeam(machine.CTEArm().Node, 12, omp.Spread)
	if err != nil {
		t.Fatal(err)
	}
	results, err := k.RunParallel(team, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 12 {
		t.Fatalf("%d results", len(results))
	}
	for i, r := range results {
		if r.Checksum != results[0].Checksum || r.Sustained != results[0].Sustained {
			t.Fatalf("thread %d diverged", i)
		}
	}
	if _, err := k.RunParallel(team, 0); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestEfficiencyImprovesWithIterations(t *testing.T) {
	// The pipeline warm-up term means short runs are less efficient —
	// exactly how the real µKernel behaves.
	core := machine.MareNostrum4().Node.Core
	k, _ := NewKernel(core, Variant{true, machine.Double})
	short, _ := k.Run(10)
	long, _ := k.Run(10000)
	if !(k.Efficiency(long) > k.Efficiency(short)) {
		t.Errorf("efficiency: short %.4f, long %.4f", k.Efficiency(short), k.Efficiency(long))
	}
}

// referenceExecute is Kernel.execute without the fixed-point exit: every
// chain runs all iters iterations. It is the oracle of
// TestKernelFixedPointDifferential: keep it simple, do not optimise it.
func referenceExecute(k *Kernel, iters, lanes int) float64 {
	n := k.Chains * lanes
	switch k.Variant.Precision {
	case machine.Double:
		a := make([]float64, n)
		b := make([]float64, n)
		c := make([]float64, n)
		for i := range a {
			a[i] = 1.0 + 1.0/float64(i+2)
			b[i] = 1.0 - 1.0/float64(i+3)
			c[i] = float64(i%7) * 0.125
		}
		for it := 0; it < iters; it++ {
			for i := 0; i < n; i++ {
				c[i] = a[i]*b[i] + c[i]*0.5
			}
		}
		sum := 0.0
		for _, v := range c {
			sum += v
		}
		return sum
	case machine.Single:
		a := make([]float32, n)
		b := make([]float32, n)
		c := make([]float32, n)
		for i := range a {
			a[i] = 1.0 + 1.0/float32(i+2)
			b[i] = 1.0 - 1.0/float32(i+3)
			c[i] = float32(i%7) * 0.125
		}
		for it := 0; it < iters; it++ {
			for i := 0; i < n; i++ {
				c[i] = a[i]*b[i] + c[i]*0.5
			}
		}
		sum := 0.0
		for _, v := range c {
			sum += float64(v)
		}
		return sum
	default: // Half
		a := make([]F16, n)
		b := make([]F16, n)
		c := make([]F16, n)
		half := F16FromFloat32(0.5)
		for i := range a {
			a[i] = F16FromFloat32(1.0 + 1.0/float32(i+2))
			b[i] = F16FromFloat32(1.0 - 1.0/float32(i+3))
			c[i] = F16FromFloat32(float32(i%7) * 0.125)
		}
		for it := 0; it < iters; it++ {
			for i := 0; i < n; i++ {
				c[i] = fmaF16(a[i], b[i], fmaF16(c[i], half, 0))
			}
		}
		sum := 0.0
		for _, v := range c {
			sum += float64(v.Float32())
		}
		return sum
	}
}

// TestKernelFixedPointDifferential requires the µKernel, which stops once
// an iteration changes no lane, to return the checksum of the full-length
// reference run bit for bit: for every variant on every preset's core, at
// iteration counts on both sides of where half (12), single (25) and
// double (54) precision settle, and at Fig. 1's 20,000.
func TestKernelFixedPointDifferential(t *testing.T) {
	iterCounts := []int{1, 2, 11, 12, 13, 24, 25, 26, 53, 54, 55, 56, 1000, 20000}
	for _, m := range []machine.Machine{machine.CTEArm(), machine.MareNostrum4(), machine.ThunderX2(), machine.Fugaku()} {
		for _, v := range Variants() {
			k, err := NewKernel(m.Node.Core, v)
			if err != nil {
				continue // unsupported variant (half on Skylake)
			}
			for _, iters := range iterCounts {
				res, err := k.Run(iters)
				if err != nil {
					t.Fatalf("%s %s: %v", m.Name, v.Name(), err)
				}
				want := referenceExecute(k, iters, k.Lanes())
				if math.Float64bits(res.Checksum) != math.Float64bits(want) {
					t.Errorf("%s %s at %d iterations: checksum %v, reference %v",
						m.Name, v.Name(), iters, res.Checksum, want)
				}
			}
		}
	}
}

// BenchmarkKernelRun times one Fig. 1 µKernel run per operation: each
// variant on the CTE-Arm core at 20,000 iterations.
func BenchmarkKernelRun(b *testing.B) {
	core := machine.CTEArm().Node.Core
	for _, v := range Variants() {
		k, err := NewKernel(core, v)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(v.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var sum float64
			for range b.N {
				res, err := k.Run(20000)
				if err != nil {
					b.Fatal(err)
				}
				sum += res.Checksum
			}
			if math.IsNaN(sum) {
				b.Fatal("NaN checksum")
			}
		})
	}
}
