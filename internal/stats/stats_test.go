package stats

import (
	"math"
	"testing"
	"testing/quick"

	"clustereval/internal/xrand"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("bad extremes: %+v", s)
	}
	if !almost(s.Mean, 5, 1e-12) {
		t.Errorf("mean = %v, want 5", s.Mean)
	}
	// Sample stddev of this classic dataset is sqrt(32/7).
	if !almost(s.Stddev, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("stddev = %v", s.Stddev)
	}
	if !almost(s.Median, 4.5, 1e-12) {
		t.Errorf("median = %v, want 4.5", s.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-5, 1}, {110, 5}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	if cv := CoefficientOfVariation([]float64{5, 5, 5}); cv != 0 {
		t.Errorf("constant sample cv = %v", cv)
	}
	cv := CoefficientOfVariation([]float64{9, 10, 11})
	if !almost(cv, 1.0/10.0, 1e-12) {
		t.Errorf("cv = %v, want 0.1", cv)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{0.5, 1, 2.5, 9.9, -3, 42} {
		h.Add(x)
	}
	if h.Total() != 6 {
		t.Errorf("total = %d, want 6", h.Total())
	}
	if h.Counts[0] != 3 { // 0.5, 1, and clamped -3
		t.Errorf("bin 0 = %d, want 3", h.Counts[0])
	}
	if h.Counts[4] != 2 { // 9.9 and clamped 42
		t.Errorf("bin 4 = %d, want 2", h.Counts[4])
	}
	if !almost(h.BinCenter(0), 1, 1e-12) || !almost(h.BinCenter(4), 9, 1e-12) {
		t.Error("bin centers wrong")
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 10, 0) },
		func() { NewHistogram(5, 5, 3) },
		func() { NewHistogram(7, 2, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHistogramModesBimodal(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	r := xrand.New(1)
	for i := 0; i < 5000; i++ {
		h.Add(2.5 + 0.5*r.NormFloat64())
		h.Add(7.5 + 0.5*r.NormFloat64())
	}
	modes := h.Modes(0.3)
	if len(modes) != 2 {
		t.Fatalf("modes = %v, want two", modes)
	}
	if !almost(h.BinCenter(modes[0]), 2.5, 1.0) || !almost(h.BinCenter(modes[1]), 7.5, 1.0) {
		t.Errorf("mode centers: %v %v", h.BinCenter(modes[0]), h.BinCenter(modes[1]))
	}
}

func TestHistogramModesEmpty(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	if m := h.Modes(0.5); m != nil {
		t.Errorf("empty histogram modes = %v", m)
	}
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x+1
	f, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(f.Slope, 2, 1e-12) || !almost(f.Intercept, 1, 1e-12) || !almost(f.R2, 1, 1e-12) {
		t.Errorf("fit = %+v", f)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := FitLine([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("degenerate x accepted")
	}
}

func TestFitLineConstantY(t *testing.T) {
	f, err := FitLine([]float64{1, 2, 3}, []float64{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(f.Slope, 0, 1e-12) || !almost(f.R2, 1, 1e-12) {
		t.Errorf("constant-y fit = %+v", f)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); !almost(g, 4, 1e-12) {
		t.Errorf("geomean = %v, want 4", g)
	}
	if g := GeoMean([]float64{1, -2}); g != 0 {
		t.Errorf("geomean with negative = %v, want 0", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("geomean empty = %v, want 0", g)
	}
}

// Property: min <= median <= max and min <= mean <= max.
func TestSummaryOrderingProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		r := xrand.New(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()*200 - 100
		}
		s := Summarize(xs)
		return s.Min <= s.Median+1e-12 && s.Median <= s.Max+1e-12 &&
			s.Min <= s.Mean+1e-12 && s.Mean <= s.Max+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentile is monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 2
		r := xrand.New(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 1000
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(xs, p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// expandedSample is the sample a histogram stands for: Counts[b] copies of
// BinCenter(b) for every bin b. It is the oracle of
// TestHistogramPercentileDifferential.
func expandedSample(h *Histogram) []float64 {
	var xs []float64
	for b, c := range h.Counts {
		for k := 0; k < c; k++ {
			xs = append(xs, h.BinCenter(b))
		}
	}
	return xs
}

// TestHistogramPercentileDifferential requires Histogram.Percentile to
// equal, bit for bit, Percentile of the expanded sample: over random
// domains, bin counts and fills (empty bins, one value, one full bin),
// and at percentiles on and between ranks, at the ends and beyond them.
func TestHistogramPercentileDifferential(t *testing.T) {
	ps := []float64{-1, 0, 1, 5, 12.5, 25, 50, 75, 95, 99, 100, 101}
	check := func(h *Histogram, p float64) bool {
		got, want := h.Percentile(p), Percentile(expandedSample(h), p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("bins %d over [%v, %v), total %d: Percentile(%v) = %v, expanded sample %v",
				len(h.Counts), h.Lo, h.Hi, h.Total(), p, got, want)
			return false
		}
		return true
	}
	// Fig. 5's domain and bin count, with the log10 bandwidths of a
	// bimodal size.
	fig5 := NewHistogram(-4, 1.2, 90)
	r := xrand.New(5)
	for range 36672 {
		x := -0.4 + 0.05*r.NormFloat64()
		if r.Float64() < 0.3 {
			x -= 0.6
		}
		fig5.Add(x)
	}
	for _, p := range ps {
		check(fig5, p)
	}
	f := func(seed uint64, binsRaw, fillRaw uint8) bool {
		r := xrand.New(seed)
		lo := (r.Float64() - 0.5) * 20
		h := NewHistogram(lo, lo+0.01+r.Float64()*10, int(binsRaw%120)+1)
		switch fillRaw % 4 {
		case 0: // empty
		case 1:
			h.Add(lo + r.Float64())
		case 2: // one bin
			for range int(fillRaw) + 2 {
				h.Counts[len(h.Counts)/2]++
			}
		default:
			for range int(fillRaw)*8 + 2 {
				if c := r.Float64(); c < 0.4 {
					h.Counts[int(c*10)%len(h.Counts)] += 3
				} else {
					h.Counts[r.Intn(len(h.Counts))]++
				}
			}
		}
		for _, p := range append(ps, r.Float64()*100) {
			if !check(h, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestHistogramPercentileAllocFree pins reading a percentile off the bins
// to zero heap allocations, whatever the sample size.
func TestHistogramPercentileAllocFree(t *testing.T) {
	h := NewHistogram(-4, 1.2, 90)
	for i := range 36672 {
		h.Add(-4 + 5.2*float64(i%997)/997)
	}
	if allocs := testing.AllocsPerRun(50, func() { h.Percentile(95) }); allocs != 0 {
		t.Errorf("Percentile allocates %v times", allocs)
	}
}

// TestGuardedEdgesSettled pins Settled on three bins of log10 over [0, 3),
// whose edges 1 and 2 map to 10 and 100 with 1% guard bands: a range
// inside one bin is settled there, including the unbounded outer bins; a
// range that meets a band or crosses an edge, NaN, +Inf and lo > hi are
// not. Every settled value must also be where Bin puts its logarithm.
func TestGuardedEdgesSettled(t *testing.T) {
	h := NewHistogram(0, 3, 3)
	g := h.GuardedEdges(func(x float64) float64 { return math.Pow(10, x) }, 0.01)
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		lo, hi float64
		bin    int
		ok     bool
	}{
		{1e-300, 9.8, 0, true},
		{10.2, 98, 1, true},
		{102, 1e300, 2, true},
		{9.8, 9.95, 0, false},
		{10.05, 20, 0, false},
		{20, 99.5, 0, false},
		{5, 50, 0, false},
		{5, 500, 0, false},
		{nan, 5, 0, false},
		{5, nan, 0, false},
		{200, inf, 0, false},
		{50, 40, 0, false},
	} {
		bin, ok := g.Settled(c.lo, c.hi)
		if bin != c.bin || ok != c.ok {
			t.Errorf("Settled(%v, %v) = %d, %v; want %d, %v", c.lo, c.hi, bin, ok, c.bin, c.ok)
		}
		if ok {
			for _, v := range []float64{c.lo, c.hi} {
				if b := h.Bin(math.Log10(v)); b != bin {
					t.Errorf("Bin(log10(%v)) = %d, Settled says %d", v, b, bin)
				}
			}
		}
	}
	one := NewHistogram(0, 3, 1).GuardedEdges(func(x float64) float64 { return math.Pow(10, x) }, 0.01)
	if bin, ok := one.Settled(1e-9, 1e9); bin != 0 || !ok {
		t.Errorf("one bin: Settled = %d, %v; want 0, true", bin, ok)
	}
	defer func() {
		if recover() == nil {
			t.Error("guard bands that meet were accepted")
		}
	}()
	// Edges 10^0.1 apart, about 26%, with 20% bands either side.
	NewHistogram(0, 1, 10).GuardedEdges(func(x float64) float64 { return math.Pow(10, x) }, 0.2)
}
