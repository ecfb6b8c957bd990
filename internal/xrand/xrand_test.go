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

func TestJitterClamped(t *testing.T) {
	r := New(17)
	const eps = 0.05
	for i := 0; i < 100000; i++ {
		j := r.Jitter(eps)
		if j < 1-3*eps-1e-12 || j > 1+3*eps+1e-12 {
			t.Fatalf("Jitter out of clamp: %v", j)
		}
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
