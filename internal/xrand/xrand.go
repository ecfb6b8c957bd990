// Package xrand implements small, fast, deterministic pseudo-random number
// generators used across the simulator. Determinism is a hard requirement:
// every figure in the reproduction must be bit-identical across runs, so the
// simulator never touches math/rand's global state or the OS entropy pool.
//
// Two generators are provided:
//
//   - SplitMix64: a tiny stateless-feeling mixer used to seed streams and to
//     hash coordinates into noise.
//   - Xoshiro256** ("Rand"): the workhorse generator with a Split method so
//     each simulated rank/node can own an independent, reproducible stream.
package xrand

import (
	"math"
	"math/bits"
)

// splitmix64 advances the state and returns the next mixed output.
// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
// generators", OOPSLA 2014.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 hashes x through the SplitMix64 finalizer. It is used to derive
// per-entity noise from stable identifiers (node index, message size, ...)
// without any shared state.
func Mix64(x uint64) uint64 {
	s := x
	return splitmix64(&s)
}

// MixN hashes a sequence of values into a single 64-bit output, so callers
// can build stable stream identities such as MixN(seed, node, pairIndex).
func MixN(vs ...uint64) uint64 {
	h := uint64(0x2545f4914f6cdd1d)
	for _, v := range vs {
		h = Mix64(h ^ v)
	}
	return h
}

// Rand is a xoshiro256** generator. The zero value is NOT valid; construct
// with New (a zero state would be a fixed point of the transition function).
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64, following the
// reference initialization recommended by the xoshiro authors. It returns
// the generator by value, so a short-lived local stream stays off the heap.
// Copying a Rand forks it: each copy then yields the same sequence on its
// own. Take its address to share one stream between holders.
func New(seed uint64) Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// Guard against the (astronomically unlikely) all-zero state. The
	// array comparison keeps New cheap enough for the compiler to inline
	// into per-message noise draws.
	if r.s == [4]uint64{} {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split returns a new generator whose stream is independent of (and
// deterministic with respect to) the parent's current state.
func (r *Rand) Split() *Rand {
	child := New(r.Uint64() ^ 0xa5a5a5a5deadbeef)
	return &child
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling would be overkill here;
	// simple modulo bias is < 2^-40 for the n values used by the simulator.
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal deviate using the Box-Muller
// transform (polar form avoided to keep the call count deterministic).
func (r *Rand) NormFloat64() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Jitter returns a multiplicative noise factor 1 + eps*N(0,1), clamped to
// [1-3eps, 1+3eps] so extreme tails cannot flip the sign of a duration.
// It is the standard way the simulator models run-to-run variability.
func (r *Rand) Jitter(eps float64) float64 {
	j := 1 + eps*r.NormFloat64()
	lo, hi := 1-3*eps, 1+3*eps
	if j < lo {
		return lo
	}
	if j > hi {
		return hi
	}
	return j
}

// SlowJitter returns a one-sided multiplicative noise factor
// 1 + eps*|N(0,1)|, clamped to [1, 1+3eps]. It models contention and system
// noise, which can only ever slow an operation down — two-sided noise would
// let effective bandwidth exceed the physical link peak.
func (r *Rand) SlowJitter(eps float64) float64 {
	n := r.NormFloat64()
	if n < 0 {
		n = -n
	}
	j := 1 + eps*n
	if hi := SlowJitterMax(eps); j > hi {
		return hi
	}
	return j
}

// SlowJitterMax returns the clamp SlowJitter(eps) never exceeds, 1+3eps,
// rounded as SlowJitter rounds it.
func SlowJitterMax(eps float64) float64 { return 1 + 3*eps }

// SlowJitterRange returns lo <= New(seed).SlowJitter(eps) <= hi for an
// eps >= 0, from the two uniforms that draw would take and without a
// logarithm, square root or cosine.
//
// SlowJitter's |N| is Sqrt(-2*Log(u1)) * |Cos(2*Pi*u2)|. The first factor
// falls as u1 grows, and the second is monotone in u2 between quarter
// turns, so the tables bound each over the cell of uniforms that a few
// leading bits of u1, and of u2, pick. Every step after that (a product
// of non-negatives, 1+eps*n and the clamp) is monotone, and so is IEEE
// rounding, so the same steps at the ends of the cells bound the result.
// lo and hi widen by a few ulps first, because Go may fuse 1+eps*n into a
// single rounding in one computation and not in the other.
func SlowJitterRange(seed uint64, eps float64) (lo, hi float64) {
	// New(seed)'s first two Uint64s, without the rest of its state: the
	// first reads s[1] alone, the second s[0]^s[1]^s[2]. New's guard
	// against an all-zero state leaves s[1] = 0, so u1 = 0 and the
	// fallback applies whatever the second reads.
	sm := seed
	s0 := splitmix64(&sm)
	s1 := splitmix64(&sm)
	s2 := splitmix64(&sm)
	return slowJitterRange(rotl(s1*5, 7)*9, rotl((s0^s1^s2)*5, 7)*9, eps)
}

// slowJitterRange is SlowJitterRange for the draw whose first two Uint64s
// are x1 and x2.
func slowJitterRange(x1, x2 uint64, eps float64) (lo, hi float64) {
	top := SlowJitterMax(eps)
	m1 := x1 >> 11 // u1 = m1 / 2^53
	if m1 < 1<<radiusBits {
		// NormFloat64 redraws u1 = 0, and no radius cell covers the few
		// other integers this small.
		return 1, top
	}
	shift := bits.Len64(m1) - (radiusBits + 1)
	r := &radiusCells[shift<<radiusBits+int(m1>>shift)-1<<radiusBits]
	a := &angleCells[x2>>(64-angleBits)]
	lo = 1 + eps*(r[0]*a[0])
	hi = 1 + eps*(r[1]*a[1])
	lo = math.Float64frombits(math.Float64bits(lo) - ulpSlack)
	hi = math.Float64frombits(math.Float64bits(hi) + ulpSlack)
	// Plain comparisons: the min and max builtins also order NaNs and
	// signed zeros, which no eps >= 0 meets, and cost more.
	if lo < 1 {
		lo = 1
	}
	if lo > top {
		lo = top
	}
	if hi > top {
		hi = top
	}
	return lo, hi
}

const (
	// radiusBits is how many bits after its leading one pick u1's radius
	// cell. Cell i spans the integers from (64 + i%64) << (i/64) up to the
	// next cell's first, so the 47 bit lengths from 7 to 53 tile every u1
	// from 64/2^53 to 1.
	radiusBits  = 6
	radiusSpans = 47
	// angleBits is how many leading bits of u2 pick its angle cell; 1,024
	// cells put a cell edge on every quarter turn.
	angleBits = 10
	// radiusGuard (relative) and angleGuard (absolute) widen each cell's
	// bounds past any sub-ulp non-monotonicity of Log and Cos, and past
	// the gap between fl(2*Pi)*u2 and 2*Pi*u2: millions of ulps either way.
	radiusGuard = 1e-9
	angleGuard  = 1e-9
	// ulpSlack is how many ulps SlowJitterRange widens lo and hi by;
	// fusing 1+eps*n or not moves the result by at most one.
	ulpSlack = 4
)

// radiusCells[i] holds [lo, hi] of Sqrt(-2*Log(u1)) over radius cell i,
// and angleCells[k] [lo, hi] of |Cos(2*Pi*u2)| over u2 in [k, k+1)/1024.
var (
	radiusCells [radiusSpans << radiusBits][2]float64
	angleCells  [1 << angleBits][2]float64
)

func init() {
	// Each bound is the function at the cell's ends, where a monotone
	// function takes its least and greatest values over the cell.
	radius := func(m uint64) float64 { return math.Sqrt(-2 * math.Log(float64(m)*(1.0/(1<<53)))) }
	start := func(i int) uint64 { return uint64(1<<radiusBits+i%(1<<radiusBits)) << (i >> radiusBits) }
	for i := range radiusCells {
		radiusCells[i] = [2]float64{radius(start(i+1)) * (1 - radiusGuard), radius(start(i)) * (1 + radiusGuard)}
	}
	angle := func(k int) float64 { return math.Abs(math.Cos(2 * math.Pi * (float64(k) / (1 << angleBits)))) }
	for k := range angleCells {
		a, b := angle(k), angle(k+1)
		angleCells[k] = [2]float64{max(min(a, b)-angleGuard, 0), max(a, b) + angleGuard}
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
