// Package stats provides the descriptive statistics used by the evaluation
// harness: summary moments, percentiles, histograms (for the Fig. 5 density
// map) and least-squares fits (for scalability slope analysis).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Stddev float64
	Median float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	ss := 0.0
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.Stddev = math.Sqrt(ss / float64(len(xs)-1))
	}
	s.Median = Percentile(xs, 50)
	return s
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. The input need not be sorted.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return interpolate(len(sorted), p, func(k int) float64 { return sorted[k] })
}

// interpolate is the p-th percentile of n ascending values, the k-th of
// which is at(k), by linear interpolation between closest ranks.
func interpolate(n int, p float64, at func(k int) float64) float64 {
	if p <= 0 {
		return at(0)
	}
	if p >= 100 {
		return at(n - 1)
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return at(lo)
	}
	frac := rank - float64(lo)
	return at(lo)*(1-frac) + at(hi)*frac
}

// CoefficientOfVariation returns stddev/mean, the paper's measure of
// run-to-run variability ("we verified that the variability is negligible").
func CoefficientOfVariation(xs []float64) float64 {
	s := Summarize(xs)
	if s.Mean == 0 {
		return 0
	}
	return s.Stddev / math.Abs(s.Mean)
}

// Histogram is a fixed-width binning of a sample, as used for the Fig. 5
// bandwidth-density map.
type Histogram struct {
	Lo, Hi float64 // domain; values outside are clamped into edge bins
	Counts []int
}

// NewHistogram builds a histogram with nbins bins over [lo, hi).
// It panics on a degenerate domain or non-positive bin count.
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if nbins <= 0 {
		panic("stats: histogram needs at least one bin")
	}
	if !(hi > lo) {
		panic("stats: histogram domain must satisfy hi > lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, nbins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.Counts[h.Bin(x)]++
}

// Bin returns the index of the bin Add counts x in.
func (h *Histogram) Bin(x float64) int {
	n := len(h.Counts)
	i := int(float64(n) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// GuardedEdges is an ascending table of a histogram's inner bin edges,
// carried from the histogram's domain to the values its observations are
// computed from, and each widened into a guard band. It decides the bin of
// a value known only to lie in a range, without computing the observation.
type GuardedEdges []float64

// GuardedEdges maps each inner bin edge e of h (the n-1 edges between n
// bins) to inv(e), where inv, which must return positive values, is the
// inverse of the increasing function whose results h bins, and widens it
// to the band [inv(e)(1-guard), inv(e)(1+guard)]. guard must exceed the
// relative rounding error between inv and h's own arithmetic (the function
// itself, then Bin), so a value outside every band lands in the bin the
// table says. It panics unless every band is positive, non-empty and
// apart from the next.
func (h *Histogram) GuardedEdges(inv func(float64) float64, guard float64) GuardedEdges {
	n := len(h.Counts)
	g := make(GuardedEdges, 0, 2*(n-1))
	for k := 1; k < n; k++ {
		v := inv(h.Lo + (h.Hi-h.Lo)*float64(k)/float64(n))
		lo, hi := v*(1-guard), v*(1+guard)
		if !(0 < lo && lo < hi) || (len(g) > 0 && !(g[len(g)-1] < lo)) {
			panic("stats: guard bands must be positive, non-empty and apart")
		}
		g = append(g, lo, hi)
	}
	return g
}

// Settled returns the bin of every value from lo to hi, and true, when the
// range meets no guard band; otherwise it returns false.
func (g GuardedEdges) Settled(lo, hi float64) (int, bool) {
	if !(lo <= hi && hi <= math.MaxFloat64) { // NaN and +Inf are never settled
		return 0, false
	}
	// i counts the band ends at or below lo: an even i = 2k puts lo above
	// edge k's band, or below the first band when k is 0.
	i, j := 0, len(g)
	for i < j {
		m := int(uint(i+j) >> 1)
		if g[m] <= lo {
			i = m + 1
		} else {
			j = m
		}
	}
	if i%2 == 1 || (i < len(g) && hi >= g[i]) {
		return 0, false
	}
	return i / 2, true
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// BinCenter returns the midpoint value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Percentile returns the p-th percentile (0..100) of the binned sample,
// each value standing at its bin's centre. Bin centres ascend with the
// bin index, so this is bit for bit Percentile of a slice holding
// Counts[b] copies of BinCenter(b) for every bin b, without building or
// sorting that slice. An empty histogram yields 0.
func (h *Histogram) Percentile(p float64) float64 {
	n := h.Total()
	if n == 0 {
		return 0
	}
	return interpolate(n, p, h.sampleCenter)
}

// sampleCenter returns the bin centre of the k-th smallest binned value.
func (h *Histogram) sampleCenter(k int) float64 {
	for b, c := range h.Counts {
		if k < c {
			return h.BinCenter(b)
		}
		k -= c
	}
	panic("stats: sample index out of range")
}

// Modes returns the indices of local maxima whose count is at least
// minFraction of the global maximum. It is used to assert the bimodal
// bandwidth distribution the paper observes for mid-size messages.
func (h *Histogram) Modes(minFraction float64) []int {
	maxc := 0
	for _, c := range h.Counts {
		if c > maxc {
			maxc = c
		}
	}
	if maxc == 0 {
		return nil
	}
	threshold := int(minFraction * float64(maxc))
	var modes []int
	for i, c := range h.Counts {
		if c < threshold || c == 0 {
			continue
		}
		left := 0
		if i > 0 {
			left = h.Counts[i-1]
		}
		right := 0
		if i < len(h.Counts)-1 {
			right = h.Counts[i+1]
		}
		if c >= left && c >= right && (c > left || c > right) {
			modes = append(modes, i)
		}
	}
	return modes
}

// LinearFit holds a least-squares line y = Slope*x + Intercept.
type LinearFit struct {
	Slope, Intercept, R2 float64
}

// FitLine computes the ordinary least squares fit of ys on xs.
// It returns an error when the inputs are mismatched or degenerate.
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: mismatched lengths %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return LinearFit{}, fmt.Errorf("stats: need at least 2 points, got %d", len(xs))
	}
	mx, my := Mean(xs), Mean(ys)
	sxx, sxy, syy := 0.0, 0.0, 0.0
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, fmt.Errorf("stats: degenerate fit, all x equal")
	}
	f := LinearFit{Slope: sxy / sxx}
	f.Intercept = my - f.Slope*mx
	if syy > 0 {
		f.R2 = sxy * sxy / (sxx * syy)
	} else {
		f.R2 = 1 // all y equal and the fit passes through them
	}
	return f, nil
}

// GeoMean returns the geometric mean of strictly positive xs; it returns 0
// when any input is non-positive or the sample is empty.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	acc := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		acc += math.Log(x)
	}
	return math.Exp(acc / float64(len(xs)))
}
