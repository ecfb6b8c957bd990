// Package simdvec is a software model of the SIMD units the paper's FPU
// µKernel exercises: scalar and vector fused-multiply-add pipelines in
// half, single and double precision, on both the A64FX (NEON/SVE) and
// Skylake (AVX-512).
//
// The package does two things at once:
//
//   - Executes the kernel for real: independent FMA chains over actual
//     lane data (float64/float32/softfloat16), so tests can verify the
//     arithmetic including precision-specific rounding. A chain's update
//     c <- a*b + c*0.5 never decreases when c grows, and c ranges over
//     finitely many floats, so every chain reaches a fixed point (Fig. 1's
//     lanes by iteration 54 in double, 25 in single, 12 in half).
//     Execution stops at the first iteration that changes no lane's bits;
//     every later one would repeat it, so checksums are those of the full
//     run for any iteration count.
//
//   - Prices the kernel: a cycle-accurate throughput model (issue width x
//     lanes x frequency x 2 flops) with a pipeline warm-up term, which is
//     what reproduces Fig. 1's "measurements match almost perfectly with
//     the theoretical values".
package simdvec

import (
	"fmt"
	"math"

	"clustereval/internal/machine"
	"clustereval/internal/omp"
	"clustereval/internal/units"
)

// fmaLatencyCycles is the FMA pipeline depth assumed for the warm-up term
// (9 cycles on A64FX, 4-6 on Skylake; the difference is invisible at the
// µKernel's iteration counts, so one constant serves both).
const fmaLatencyCycles = 9

// Variant is one of the six µKernel configurations: scalar or vector,
// times half/single/double precision.
type Variant struct {
	Vector    bool
	Precision machine.Precision
}

// Variants returns the six kernel variants in the order Fig. 1 plots them.
func Variants() []Variant {
	return []Variant{
		{false, machine.Half}, {false, machine.Single}, {false, machine.Double},
		{true, machine.Half}, {true, machine.Single}, {true, machine.Double},
	}
}

// Name renders e.g. "vector-double" or "scalar-half".
func (v Variant) Name() string {
	kind := "scalar"
	if v.Vector {
		kind = "vector"
	}
	return kind + "-" + v.Precision.String()
}

// Kernel is a configured FPU µKernel run on one core.
type Kernel struct {
	Core    machine.Core
	Variant Variant
	// ISA is the vector extension used (ignored for scalar variants).
	ISA machine.ISA
	// Chains is the number of independent FMA dependency chains (virtual
	// registers); the real µKernel uses enough to cover the FMA latency.
	Chains int
}

// NewKernel configures the µKernel for the widest unit of the core that
// supports the variant's precision. It returns an error when the core
// cannot execute the variant at all (e.g. half precision on Skylake).
func NewKernel(core machine.Core, v Variant) (*Kernel, error) {
	k := &Kernel{Core: core, Variant: v, Chains: 16}
	if !v.Vector {
		if v.Precision == machine.Half {
			// Scalar FP16 FMA exists only on cores whose vector units do
			// half precision (FEXPA etc. on A64FX); mirror that.
			if core.BestVector(machine.Half) == nil {
				return nil, fmt.Errorf("simdvec: core has no half-precision support")
			}
		}
		k.ISA = machine.ISAScalar
		return k, nil
	}
	best := core.BestVector(v.Precision)
	if best == nil {
		return nil, fmt.Errorf("simdvec: core has no vector unit for %s", v.Precision)
	}
	k.ISA = best.ISA
	return k, nil
}

// Lanes returns the number of elements each FMA instruction processes.
func (k *Kernel) Lanes() int {
	if !k.Variant.Vector {
		return 1
	}
	for _, u := range k.Core.Vector {
		if u.ISA == k.ISA {
			return u.Lanes(k.Variant.Precision)
		}
	}
	return 0
}

// issueWidth returns FMA instructions issued per cycle.
func (k *Kernel) issueWidth() int {
	if !k.Variant.Vector {
		return k.Core.ScalarFMAPerCycle
	}
	for _, u := range k.Core.Vector {
		if u.ISA == k.ISA {
			return u.IssuePerCyc
		}
	}
	return 0
}

// TheoreticalPeak returns Pv = s*i*f*o for this variant (the paper's
// formula in Section III-A).
func (k *Kernel) TheoreticalPeak() units.FlopsPerSecond {
	return units.FlopsPerSecond(float64(k.Lanes()) * float64(k.issueWidth()) *
		k.Core.FrequencyHz * 2)
}

// Result of one kernel execution.
type Result struct {
	Iterations int
	Flops      float64
	Time       units.Seconds
	Sustained  units.FlopsPerSecond
	// Checksum is a reduction over the final chain values, proving the
	// arithmetic really ran (and pinning precision-specific rounding).
	Checksum float64
}

// Run executes iters iterations of the FMA kernel. One iteration issues one
// FMA instruction per chain, matching the unrolled assembly of the real
// µKernel (no data dependencies between chains).
func (k *Kernel) Run(iters int) (Result, error) {
	if iters <= 0 {
		return Result{}, fmt.Errorf("simdvec: iterations must be positive, got %d", iters)
	}
	lanes := k.Lanes()
	if lanes == 0 || k.issueWidth() == 0 {
		return Result{}, fmt.Errorf("simdvec: variant %s not executable", k.Variant.Name())
	}

	checksum := k.execute(iters, lanes)

	// Timing model: iters*Chains instructions over issueWidth pipes, plus
	// pipeline fill. This is what the sustained bar of Fig. 1 reports.
	instructions := float64(iters) * float64(k.Chains)
	cycles := instructions/float64(k.issueWidth()) + fmaLatencyCycles
	t := units.Seconds(cycles / k.Core.FrequencyHz)
	flops := instructions * float64(lanes) * 2
	return Result{
		Iterations: iters,
		Flops:      flops,
		Time:       t,
		Sustained:  units.FlopsPerSecond(flops / float64(t)),
		Checksum:   checksum,
	}, nil
}

// execute performs the real lane arithmetic and returns a checksum. It
// stops once an iteration leaves every lane's bits unchanged: a lane's
// next value depends only on its own current one, so every further
// iteration would leave it unchanged too, and the checksum is the one all
// iters iterations produce. Comparing bits, not values, keeps a flip
// between -0 and +0 (which == calls equal) from ending the loop early.
func (k *Kernel) execute(iters, lanes int) float64 {
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
		for it, moved := 0, true; it < iters && moved; it++ {
			moved = false
			for i := 0; i < n; i++ {
				next := a[i]*b[i] + c[i]*0.5
				moved = moved || math.Float64bits(next) != math.Float64bits(c[i])
				c[i] = next
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
		for it, moved := 0, true; it < iters && moved; it++ {
			moved = false
			for i := 0; i < n; i++ {
				next := a[i]*b[i] + c[i]*0.5
				moved = moved || math.Float32bits(next) != math.Float32bits(c[i])
				c[i] = next
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
		for it, moved := 0, true; it < iters && moved; it++ {
			moved = false
			for i := 0; i < n; i++ {
				next := fmaF16(a[i], b[i], fmaF16(c[i], half, 0))
				moved = moved || next != c[i] // F16 is the bit pattern
				c[i] = next
			}
		}
		sum := 0.0
		for _, v := range c {
			sum += float64(v.Float32())
		}
		return sum
	}
}

// Efficiency returns sustained/theoretical for a result.
func (k *Kernel) Efficiency(r Result) float64 {
	peak := float64(k.TheoreticalPeak())
	if peak == 0 {
		return 0
	}
	return float64(r.Sustained) / peak
}

// RunParallel executes the kernel once per thread of the team concurrently
// — the multi-threaded µKernel the paper uses to verify there is no
// variability within a node. Each thread runs an independent instance (the
// real kernel touches only registers, so threads never interact); the
// per-thread results are returned in thread order.
func (k *Kernel) RunParallel(team *omp.Team, iters int) ([]Result, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("simdvec: iterations must be positive, got %d", iters)
	}
	results := make([]Result, team.Threads())
	errs := make([]error, team.Threads())
	team.ParallelRanges(team.Threads(), func(_, lo, hi int) {
		for tid := lo; tid < hi; tid++ {
			results[tid], errs[tid] = k.Run(iters)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
