// Package osu implements the paper's network micro-benchmark (Section
// III-C), a custom OSU-style point-to-point test: N iterations of
// MPI_Sendrecv at fixed message size s, bandwidth B = s*N/(te-ts).
//
// Two measurement paths exist and are tested to agree: MeasurePair drives a
// real two-rank program through the simulated MPI runtime (every message
// schedules through the DES), while the Heatmap/Distribution generators
// price messages directly with the fabric cost model so that the full
// 192x191-pair sweeps of Figs. 4 and 5 stay fast. Those sweeps split their
// senders over GOMAXPROCS goroutines; see sweepSenders for why the result
// is bit for bit the serial one.
package osu

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"clustereval/internal/interconnect"
	"clustereval/internal/mpisim"
	"clustereval/internal/stats"
	"clustereval/internal/units"
)

// DefaultIterations matches the short inner loop of the paper's test.
const DefaultIterations = 16

// MeasurePair runs the real Sendrecv loop between two nodes through the
// simulated MPI runtime and returns the observed bandwidth.
func MeasurePair(f *interconnect.Fabric, sender, receiver int, size units.Bytes, iters int) (units.BytesPerSecond, error) {
	return MeasurePairContext(context.Background(), f, sender, receiver, size, iters)
}

// MeasurePairContext is MeasurePair under a context: a deadline or
// cancellation aborts the simulated run between DES events, which is how
// clusterd's per-job deadlines cut a network measurement short mid-run.
func MeasurePairContext(ctx context.Context, f *interconnect.Fabric, sender, receiver int, size units.Bytes, iters int) (units.BytesPerSecond, error) {
	if iters <= 0 {
		return 0, fmt.Errorf("osu: iterations must be positive")
	}
	w, err := mpisim.NewWorldPlaced(f, []int{sender, receiver})
	if err != nil {
		return 0, err
	}
	var bw units.BytesPerSecond
	err = w.RunContext(ctx, func(c *mpisim.Comm) {
		peer := 1 - c.Rank()
		start := c.Now()
		for i := 0; i < iters; i++ {
			c.Sendrecv(peer, 0, size, nil, peer, 0)
		}
		if c.Rank() == 0 {
			elapsed := c.Now() - start
			bw = units.BytesPerSecond(float64(size) * float64(iters) / float64(elapsed))
		}
	})
	if err != nil {
		return 0, err
	}
	return bw, nil
}

// LatencyPoint is one entry of the osu_latency-style sweep.
type LatencyPoint struct {
	Size    units.Bytes
	Latency units.Seconds // half round-trip, the OSU convention
}

// MeasureLatency runs the classic ping-pong through the simulated MPI
// runtime between two nodes: rank 0 sends, rank 1 echoes; the reported
// latency per size is half the mean round trip.
func MeasureLatency(f *interconnect.Fabric, a, bNode int, sizes []units.Bytes, iters int) ([]LatencyPoint, error) {
	return MeasureLatencyContext(context.Background(), f, a, bNode, sizes, iters)
}

// MeasureLatencyContext is MeasureLatency under a context: the sweep
// aborts between simulated events when ctx is cancelled, which is how
// clusterd's job deadlines cut a long sweep short.
func MeasureLatencyContext(ctx context.Context, f *interconnect.Fabric, a, bNode int, sizes []units.Bytes, iters int) ([]LatencyPoint, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("osu: iterations must be positive")
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("osu: need at least one message size")
	}
	w, err := mpisim.NewWorldPlaced(f, []int{a, bNode})
	if err != nil {
		return nil, err
	}
	out := make([]LatencyPoint, 0, len(sizes))
	err = w.RunContext(ctx, func(c *mpisim.Comm) {
		peer := 1 - c.Rank()
		for _, size := range sizes {
			start := c.Now()
			for i := 0; i < iters; i++ {
				if c.Rank() == 0 {
					c.Send(peer, 0, size, nil)
					c.Recv(peer, 1)
				} else {
					c.Recv(peer, 0)
					c.Send(peer, 1, size, nil)
				}
			}
			if c.Rank() == 0 {
				rtt := (c.Now() - start) / units.Seconds(iters)
				out = append(out, LatencyPoint{Size: size, Latency: rtt / 2})
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Heatmap is the Fig. 4 data: bandwidth for every ordered (sender,
// receiver) pair at one message size.
type Heatmap struct {
	Size  units.Bytes
	Iters int
	// BW[s][r] is the bandwidth from node s to node r; the diagonal is 0
	// (a node does not message itself in this test).
	BW [][]units.BytesPerSecond
}

// sweepSenders splits the senders 0..n-1 into at most GOMAXPROCS
// contiguous shards, sweeps each in a goroutine of its own and returns the
// shards' results in sender order.
//
// A sharded sweep is exact, not merely close: SustainedBandwidth, and the
// interconnect.Sweep that bins it, are pure functions of a fabric nobody
// writes to (each trial's stream is Mix64(key ^ trial); DegradedRecv and
// the fault model are only read), so a pair's bandwidth does not depend on
// which goroutine prices it or when.
// Fig. 4 keeps each shard's rows in sender order, and Fig. 5 adds up
// integer bin counts, whose sum does not depend on the order.
func sweepSenders[T any](n int, sweep func(lo, hi int) T) []T {
	out := make([]T, max(1, min(runtime.GOMAXPROCS(0), n)))
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = sweep(i*n/len(out), (i+1)*n/len(out))
		}()
	}
	wg.Wait()
	return out
}

// Figure4 sweeps all ordered node pairs of the fabric at the given message
// size (the paper uses 256 B as "representative of medium message sizes").
func Figure4(f *interconnect.Fabric, size units.Bytes, iters int) (*Heatmap, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("osu: iterations must be positive")
	}
	n := f.Topo.Nodes()
	shards := sweepSenders(n, func(lo, hi int) [][]units.BytesPerSecond {
		rows := make([][]units.BytesPerSecond, 0, hi-lo)
		for s := lo; s < hi; s++ {
			row := make([]units.BytesPerSecond, n)
			for r := range row {
				if s != r {
					row[r] = f.SustainedBandwidth(s, r, size, iters)
				}
			}
			rows = append(rows, row)
		}
		return rows
	})
	return &Heatmap{Size: size, Iters: iters, BW: slices.Concat(shards...)}, nil
}

// Nodes returns the node count of the heatmap.
func (h *Heatmap) Nodes() int { return len(h.BW) }

// MeanAsSender returns a node's mean bandwidth over all its outgoing pairs.
func (h *Heatmap) MeanAsSender(node int) units.BytesPerSecond {
	var sum float64
	for r, bw := range h.BW[node] {
		if r != node {
			sum += float64(bw)
		}
	}
	return units.BytesPerSecond(sum / float64(h.Nodes()-1))
}

// MeanAsReceiver returns a node's mean bandwidth over all incoming pairs.
func (h *Heatmap) MeanAsReceiver(node int) units.BytesPerSecond {
	var sum float64
	for s := range h.BW {
		if s != node {
			sum += float64(h.BW[s][node])
		}
	}
	return units.BytesPerSecond(sum / float64(h.Nodes()-1))
}

// DegradedReceivers returns nodes whose mean receive bandwidth falls below
// threshold times the median node's — the analysis that exposes
// arms0b1-11c in Fig. 4.
func (h *Heatmap) DegradedReceivers(threshold float64) []int {
	n := h.Nodes()
	means := make([]float64, n)
	for i := 0; i < n; i++ {
		means[i] = float64(h.MeanAsReceiver(i))
	}
	med := stats.Percentile(means, 50)
	var out []int
	for i, m := range means {
		if m < threshold*med {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// DiagonalProfile returns the mean bandwidth at each sender-receiver index
// offset k (1..n-1): the quantity whose periodic structure produces the
// diagonal banding visible in Fig. 4.
func (h *Heatmap) DiagonalProfile() []float64 {
	n := h.Nodes()
	prof := make([]float64, n-1)
	for k := 1; k < n; k++ {
		var sum float64
		var cnt int
		for s := 0; s < n; s++ {
			r := (s + k) % n
			sum += float64(h.BW[s][r])
			cnt++
		}
		prof[k-1] = sum / float64(cnt)
	}
	return prof
}

// Distribution is the Fig. 5 data: for each message size, a histogram of
// the bandwidth achieved across all node pairs (log10 GB/s bins).
type Distribution struct {
	Sizes []units.Bytes
	// Hist[i] bins log10(bandwidth in GB/s) for Sizes[i].
	Hist []*stats.Histogram
	// LogLo and LogHi bound the common histogram domain.
	LogLo, LogHi float64
}

// Figure5 sweeps message sizes (powers of two from 2^minExp to 2^maxExp)
// over all ordered node pairs and bins the resulting bandwidths.
func Figure5(f *interconnect.Fabric, minExp, maxExp, bins, iters int) (*Distribution, error) {
	if minExp < 0 || maxExp < minExp {
		return nil, fmt.Errorf("osu: bad exponent range [%d, %d]", minExp, maxExp)
	}
	if bins <= 0 {
		return nil, fmt.Errorf("osu: need positive bin count")
	}
	if iters <= 0 {
		return nil, fmt.Errorf("osu: iterations must be positive")
	}
	d := &Distribution{LogLo: -4, LogHi: 1.2}
	for exp := minExp; exp <= maxExp; exp++ {
		d.Sizes = append(d.Sizes, units.Bytes(math.Pow(2, float64(exp))))
	}
	// Each shard bins its own senders through a sweep of its own, pair by
	// pair so each route is priced once for every size, and counts them in
	// one flat table, bins consecutive per size. Once all have finished,
	// the histograms add up every shard's counts. Every histogram has the
	// same domain, so one binning serves them all.
	binning := newGBBins(stats.NewHistogram(d.LogLo, d.LogHi, bins))
	n := f.Topo.Nodes()
	shards := sweepSenders(n, func(lo, hi int) []int {
		counts := make([]int, len(d.Sizes)*bins)
		sweep := f.NewSweep(d.Sizes, iters, binning)
		for s := lo; s < hi; s++ {
			for r := 0; r < n; r++ {
				if s == r {
					continue
				}
				sweep.Route(s, r)
				for i := range d.Sizes {
					counts[i*bins+sweep.Bin(i)]++
				}
			}
		}
		return counts
	})
	d.Hist = make([]*stats.Histogram, len(d.Sizes))
	for i := range d.Hist {
		h := stats.NewHistogram(d.LogLo, d.LogHi, bins)
		for _, counts := range shards {
			for b, c := range counts[i*bins : (i+1)*bins] {
				h.Counts[b] += c
			}
		}
		d.Hist[i] = h
	}
	return d, nil
}

// gbBins bins bandwidths as Fig. 5's histograms do, by log10 of GB/s.
// Settled reads a table of the bin edges in B/s instead, so it takes no
// logarithm.
type gbBins struct {
	h     *stats.Histogram
	edges stats.GuardedEdges
}

// gbGuard is the relative width of the band around each bin edge in which
// gbBins settles nothing. The edge table (10^e GB/s in B/s) and Bin
// (log10 of GB/s, then the histogram's arithmetic) round differently by a
// few ulps, about 1e-15 relative on Fig. 5's domain; 1e-9 is about 10^6
// ulps wide, and over 10^6 times narrower than a bin even at 2,000 bins.
const gbGuard = 1e-9

func newGBBins(h *stats.Histogram) *gbBins {
	inv := func(x float64) float64 { return math.Pow(10, x) * units.Giga }
	return &gbBins{h: h, edges: h.GuardedEdges(inv, gbGuard)}
}

func (b *gbBins) Bin(bw units.BytesPerSecond) int { return b.h.Bin(math.Log10(bw.GB())) }

func (b *gbBins) Settled(lo, hi units.BytesPerSecond) (int, bool) {
	return b.edges.Settled(float64(lo), float64(hi))
}

// BimodalSizes returns the message sizes whose bandwidth distribution has
// at least two modes above minFraction of the dominant mode — the paper's
// observation for the 1 kB - 256 kB range.
func (d *Distribution) BimodalSizes(minFraction float64) []units.Bytes {
	var out []units.Bytes
	for i, h := range d.Hist {
		if len(h.Modes(minFraction)) >= 2 {
			out = append(out, d.Sizes[i])
		}
	}
	return out
}

// SpreadAt returns the ratio between the 95th and 5th percentile bandwidth
// for size index i — the variability measure for the >1 MB observation.
// Each pair's bandwidth counts at its bin's centre. The percentiles are
// read off the bin counts, so no per-pair sample is built or sorted.
func (d *Distribution) SpreadAt(i int) float64 {
	h := d.Hist[i]
	if h.Total() == 0 {
		return 0
	}
	lo := h.Percentile(5)
	hi := h.Percentile(95)
	return math.Pow(10, hi-lo) // ratio in linear space
}
