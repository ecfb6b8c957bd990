package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Error("sibling splits produced identical first output")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) covered %d values, want 7", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r := New(1)
	r.Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

// TestSlowJitterOneSided requires SlowJitter(e) to lie in [1, 1+3e] with
// no slack, 1+3e rounded at run time as SlowJitter rounds it, at 0.2 and
// at every amplitude the TofuD fabric draws: its small-message noise of
// 0.01 and large-message noise of 0.5, each split 0.7/0.3 between the
// persistent and the transient factor, and no noise. interconnect's Fig. 5
// bounds rely on this clamp.
func TestSlowJitterOneSided(t *testing.T) {
	for _, eps := range []float64{0.2, 0, 0.003, 0.007, 0.15, 0.35} {
		r := New(23)
		hi := 1 + 3*eps
		sum := 0.0
		for i := 0; i < 100000; i++ {
			j := r.SlowJitter(eps)
			if j < 1 || j > hi {
				t.Fatalf("SlowJitter(%v) = %v, outside [1, %v]", eps, j, hi)
			}
			sum += j
		}
		if got := SlowJitterMax(eps); got != hi {
			t.Errorf("SlowJitterMax(%v) = %v, want %v", eps, got, hi)
		}
		// Mean of 1 + eps*|N| is 1 + eps*sqrt(2/pi), about 1.16 at 0.2.
		mean := sum / 100000
		if math.Abs(mean-(1+eps*math.Sqrt(2/math.Pi))) > 0.05*eps {
			t.Errorf("SlowJitter(%v) mean = %v", eps, mean)
		}
	}
}

// slowJitterOf is SlowJitter(eps) for a draw whose first two Uint64s are
// x1 and x2, x1>>11 not 0: the arithmetic of NormFloat64 and SlowJitter
// written out.
func slowJitterOf(x1, x2 uint64, eps float64) float64 {
	u1 := float64(x1>>11) * (1.0 / (1 << 53))
	u2 := float64(x2>>11) * (1.0 / (1 << 53))
	n := math.Abs(math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2))
	return min(1+eps*n, SlowJitterMax(eps))
}

// radiusStart is the first 53-bit integer of radius cell i; radiusStart of
// the cell past the last is 2^53.
func radiusStart(i int) uint64 {
	return uint64(1<<radiusBits+i%(1<<radiusBits)) << (i >> radiusBits)
}

// TestSlowJitterRangeOracle checks SlowJitterRange's tables, and the
// range it returns, against the Box–Muller arithmetic they bound:
//   - every radius cell holds Sqrt(-2*Log(u1)) at both its ends and at
//     their integer neighbours, as does every angle cell |Cos(2*Pi*u2)|,
//     with the quarter turns and 4,096 integers either side of each, and
//     each with a few ulps to spare;
//   - 1,048,576 random (u1, u2) interior to random cells, through the
//     tables and through slowJitterRange at amplitudes 0.35 and 1;
//   - SlowJitterRange(seed, eps) reads New(seed)'s first two Uint64s, and
//     New(seed).SlowJitter(eps) lies in it, for 3,000,000 seeds at each
//     amplitude Fig. 5 draws at, and 0 and 1;
//   - and both fallbacks, which no seed reaches in practice, through the
//     raw-bits slowJitterRange.
func TestSlowJitterRangeOracle(t *testing.T) {
	radius := func(m uint64) float64 { return math.Sqrt(-2 * math.Log(float64(m)*(1.0/(1<<53)))) }
	angle := func(m uint64) float64 { return math.Abs(math.Cos(2 * math.Pi * (float64(m) * (1.0 / (1 << 53))))) }
	// A cell must hold each value it covers with room to spare, 2^-50
	// relative for the radius and absolute for the angle (4 to 8 ulps),
	// because Log and Cos may wobble by an ulp at the points no test
	// reaches. |Cos| never goes below 0, so neither need its bound.
	const slack = 0x1p-50
	checkRadius := func(i int, m uint64) {
		t.Helper()
		if m < radiusStart(i) || m >= radiusStart(i+1) {
			return // a neighbour outside the tiled range
		}
		if c, r := radiusCells[i], radius(m); !(c[0] <= r*(1-slack) && r*(1+slack) <= c[1]) {
			t.Fatalf("radius cell %d = %v does not hold Sqrt(-2*Log(%d/2^53)) = %v with room to spare", i, c, m, r)
		}
	}
	const angleSpan = 1 << (53 - angleBits) // integers per angle cell
	checkAngle := func(m uint64) {
		t.Helper()
		if m >= 1<<53 {
			return
		}
		k := m / angleSpan
		if c, a := angleCells[k], angle(m); !(c[0] <= max(a-slack, 0) && a+slack <= c[1]) {
			t.Fatalf("angle cell %d = %v does not hold |Cos(2*Pi*%d/2^53)| = %v with room to spare", k, c, m, a)
		}
	}

	for i := range radiusCells {
		lo, hi := radiusStart(i), radiusStart(i+1)-1
		for _, m := range []uint64{lo - 1, lo, lo + 1, hi - 1, hi, hi + 1} {
			for _, c := range []int{i - 1, i, i + 1} {
				if c >= 0 && c < len(radiusCells) {
					checkRadius(c, m)
				}
			}
		}
	}
	for k := range uint64(len(angleCells)) {
		lo, hi := k*angleSpan, (k+1)*angleSpan-1
		for _, m := range []uint64{lo - 1, lo, lo + 1, hi - 1, hi, hi + 1} {
			checkAngle(m)
		}
	}
	for _, quarter := range []uint64{1 << 51, 1 << 52, 3 << 51} {
		for m := quarter - 4096; m <= quarter+4096; m++ {
			checkAngle(m)
		}
	}

	rng := New(0x5107)
	for range 1 << 20 {
		i := rng.Intn(len(radiusCells))
		m1 := radiusStart(i) + rng.Uint64()%(radiusStart(i+1)-radiusStart(i))
		m2 := rng.Uint64() >> 11
		checkRadius(i, m1)
		checkAngle(m2)
		x1, x2 := m1<<11|rng.Uint64()>>53, m2<<11|rng.Uint64()>>53
		for _, eps := range []float64{0.35, 1} {
			if lo, hi := slowJitterRange(x1, x2, eps); !(lo <= slowJitterOf(x1, x2, eps) && slowJitterOf(x1, x2, eps) <= hi) {
				t.Fatalf("slowJitterRange(%#x, %#x, %v) = [%v, %v] misses %v", x1, x2, eps, lo, hi, slowJitterOf(x1, x2, eps))
			}
		}
	}

	for _, eps := range []float64{0, 0.003, 0.007, 0.15, 0.35, 1} {
		for seed := range uint64(3_000_000) {
			r := New(seed)
			x1, x2 := r.Uint64(), r.Uint64()
			lo, hi := SlowJitterRange(seed, eps)
			if wantLo, wantHi := slowJitterRange(x1, x2, eps); lo != wantLo || hi != wantHi {
				t.Fatalf("SlowJitterRange(%d, %v) = [%v, %v], but New(%d) draws [%v, %v]", seed, eps, lo, hi, seed, wantLo, wantHi)
			}
			r = New(seed)
			if j := r.SlowJitter(eps); !(lo <= j && j <= hi) {
				t.Fatalf("SlowJitterRange(%d, %v) = [%v, %v] misses SlowJitter %v", seed, eps, lo, hi, j)
			}
		}
	}

	// u1 = 0, which NormFloat64 redraws; 1/2^53 and 63/2^53, which no
	// radius cell covers; and 64/2^53, the first that one does.
	for _, m1 := range []uint64{0, 1, 63, 64} {
		for _, eps := range []float64{0, 0.007, 0.35, 1} {
			x1, x2 := m1<<11|0x7ff, uint64(0x9e3779b97f4a7c15)
			lo, hi := slowJitterRange(x1, x2, eps)
			if m1 < 64 && (lo != 1 || hi != SlowJitterMax(eps)) {
				t.Errorf("slowJitterRange(u1 = %d/2^53, %v) = [%v, %v], want the fallback [1, %v]", m1, eps, lo, hi, SlowJitterMax(eps))
			}
			if j := slowJitterOf(x1, x2, eps); m1 > 0 && !(lo <= j && j <= hi) {
				t.Errorf("slowJitterRange(u1 = %d/2^53, %v) = [%v, %v] misses %v", m1, eps, lo, hi, j)
			}
			if m1 == 64 && eps > 0 && lo == 1 {
				t.Errorf("slowJitterRange(u1 = 64/2^53, %v) = [%v, %v] fell back", eps, lo, hi)
			}
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		r := New(seed)
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMix64Distinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 10000; i++ {
		h := Mix64(i)
		if seen[h] {
			t.Fatalf("Mix64 collision at %d", i)
		}
		seen[h] = true
	}
}

func TestMixNOrderSensitive(t *testing.T) {
	if MixN(1, 2) == MixN(2, 1) {
		t.Error("MixN should be order sensitive")
	}
	if MixN(1, 2, 3) == MixN(1, 2) {
		t.Error("MixN should be length sensitive")
	}
}

// Sinks keep the compiler from discarding the benchmarked calls.
var (
	sinkRand   Rand
	sinkUint64 uint64
	sinkFloat  float64
)

// BenchmarkNew seeds one generator per operation, as every message's
// transient jitter stream is seeded.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := range b.N {
		sinkRand = New(uint64(i))
	}
}

// BenchmarkNormFloat64 draws one standard normal deviate per operation
// (Box-Muller: a log, a square root and a cosine), the core of every
// jitter draw.
func BenchmarkNormFloat64(b *testing.B) {
	b.ReportAllocs()
	r := New(1)
	var sum float64
	for range b.N {
		sum += r.NormFloat64()
	}
	sinkFloat = sum
}

// BenchmarkSlowJitterRange bounds one persistent jitter factor of Fig. 5's
// large-message amplitude per operation from its seed, as Fig. 5 bounds
// the factors it does not draw; compare BenchmarkNormFloat64.
func BenchmarkSlowJitterRange(b *testing.B) {
	b.ReportAllocs()
	var sum float64
	for i := range b.N {
		lo, hi := SlowJitterRange(uint64(i), 0.35)
		sum += hi - lo
	}
	sinkFloat = sum
}

// BenchmarkMixN hashes one four-value stream identity per operation, the
// shape of a transfer's (seed, src, dst, size) key.
func BenchmarkMixN(b *testing.B) {
	b.ReportAllocs()
	var h uint64
	for i := range b.N {
		h ^= MixN(0x7f0a64f, uint64(i), 23, 256)
	}
	sinkUint64 = h
}
