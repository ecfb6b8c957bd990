package osu

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"clustereval/internal/faultsim"
	"clustereval/internal/interconnect"
	"clustereval/internal/machine"
	"clustereval/internal/stats"
	"clustereval/internal/topology"
	"clustereval/internal/units"
)

func tofu(t *testing.T, nodes int) *interconnect.Fabric {
	t.Helper()
	f, err := interconnect.NewTofuD(machine.CTEArm(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMeasurePairAgainstModel(t *testing.T) {
	// The DES-backed measurement and the direct cost model must agree:
	// the DES adds only the software overheads.
	f := tofu(t, 24)
	for _, size := range []units.Bytes{256, 64 * 1024, 4 << 20} {
		des, err := MeasurePair(f, 0, 7, size, 8)
		if err != nil {
			t.Fatal(err)
		}
		direct := f.SustainedBandwidth(0, 7, size, 8)
		// The Sendrecv loop overlaps the two directions; the reported
		// bandwidth can exceed the one-way model slightly but must be
		// within a small factor.
		ratio := float64(des) / float64(direct)
		if ratio < 0.5 || ratio > 1.5 {
			t.Errorf("size %v: DES %v vs model %v (ratio %.2f)", size, des, direct, ratio)
		}
	}
}

func TestMeasurePairErrors(t *testing.T) {
	f := tofu(t, 12)
	if _, err := MeasurePair(f, 0, 1, 256, 0); err == nil {
		t.Error("zero iterations accepted")
	}
	if _, err := MeasurePair(f, 0, 99, 256, 4); err == nil {
		t.Error("invalid node accepted")
	}
}

func TestFigure4DegradedNode(t *testing.T) {
	// Fig. 4's finding: arms0b1-11c (node 23) is slow as a receiver but
	// fine as a sender. Use a large size where the effect dominates.
	f := tofu(t, 192)
	h, err := Figure4(f, units.Bytes(1<<20), 4)
	if err != nil {
		t.Fatal(err)
	}
	degraded := h.DegradedReceivers(0.5)
	if len(degraded) != 1 || degraded[0] != 23 {
		t.Fatalf("degraded receivers = %v, want [23]", degraded)
	}
	if topology.TofuNodeName(degraded[0]) != "arms0b1-11c" {
		t.Errorf("degraded node name = %s", topology.TofuNodeName(degraded[0]))
	}
	// Sender side healthy: within 20 % of the median sender.
	sender := float64(h.MeanAsSender(23))
	other := float64(h.MeanAsSender(24))
	if math.Abs(sender-other)/other > 0.2 {
		t.Errorf("node 23 as sender %.3g differs from healthy %.3g", sender, other)
	}
}

func TestFigure4DiagonalBanding(t *testing.T) {
	// The diagonal profile must correlate with hop distance: offsets whose
	// torus distance is small show higher bandwidth.
	f := tofu(t, 192)
	h, err := Figure4(f, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	prof := h.DiagonalProfile()
	if len(prof) != 191 {
		t.Fatalf("profile length %d", len(prof))
	}
	// Mean hop count per offset.
	hops := make([]float64, 191)
	for k := 1; k < 192; k++ {
		sum := 0.0
		for s := 0; s < 192; s++ {
			sum += float64(f.Topo.Hops(s, (s+k)%192))
		}
		hops[k-1] = sum / 192
	}
	// Rank correlation proxy: the offset with the fewest hops must have
	// higher bandwidth than the offset with the most hops.
	minK, maxK := 0, 0
	for k := range hops {
		if hops[k] < hops[minK] {
			minK = k
		}
		if hops[k] > hops[maxK] {
			maxK = k
		}
	}
	if prof[minK] <= prof[maxK] {
		t.Errorf("banding absent: near offset %.3g <= far offset %.3g", prof[minK], prof[maxK])
	}
}

func TestFigure4Errors(t *testing.T) {
	f := tofu(t, 12)
	if _, err := Figure4(f, 256, 0); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestHeatmapMeans(t *testing.T) {
	f := tofu(t, 12)
	h, err := Figure4(f, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Nodes() != 12 {
		t.Fatalf("nodes = %d", h.Nodes())
	}
	for i := 0; i < 12; i++ {
		if h.BW[i][i] != 0 {
			t.Errorf("diagonal entry %d not zero", i)
		}
		if h.MeanAsSender(i) <= 0 || h.MeanAsReceiver(i) <= 0 {
			t.Errorf("node %d has non-positive mean bandwidth", i)
		}
	}
}

func TestFigure5Bimodality(t *testing.T) {
	// Paper: bimodal distribution for 1 kB..256 kB; wide variability >1 MB.
	f := tofu(t, 48)
	d, err := Figure5(f, 6, 24, 120, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Sizes) != 19 {
		t.Fatalf("%d sizes", len(d.Sizes))
	}
	bimodal := d.BimodalSizes(0.12)
	foundMid := false
	for _, s := range bimodal {
		if s >= 1024 && s <= 256*1024 {
			foundMid = true
		}
	}
	if !foundMid {
		t.Errorf("no bimodal size in 1kB..256kB; bimodal set: %v", bimodal)
	}

	// Spread grows with message size past 1 MB.
	idxOf := func(size units.Bytes) int {
		for i, s := range d.Sizes {
			if s == size {
				return i
			}
		}
		t.Fatalf("size %v missing", size)
		return -1
	}
	spreadSmall := d.SpreadAt(idxOf(256))
	spreadLarge := d.SpreadAt(idxOf(units.Bytes(1 << 23)))
	if spreadLarge <= spreadSmall {
		t.Errorf("large-message spread %.2f not above small %.2f", spreadLarge, spreadSmall)
	}
}

// referenceSpreadAt is SpreadAt by the definition: every pair's binned
// bandwidth written out and sorted for the percentiles. It is the oracle
// of TestSpreadAtDifferential: keep it simple, do not optimise it.
func referenceSpreadAt(d *Distribution, i int) float64 {
	h := d.Hist[i]
	var samples []float64
	for b, c := range h.Counts {
		for k := 0; k < c; k++ {
			samples = append(samples, h.BinCenter(b))
		}
	}
	if len(samples) == 0 {
		return 0
	}
	lo := stats.Percentile(samples, 5)
	hi := stats.Percentile(samples, 95)
	return math.Pow(10, hi-lo)
}

// TestSpreadAtDifferential requires SpreadAt, which reads the percentiles
// off the bin counts, to match referenceSpreadAt bit for bit at every size
// of Fig. 5 as the paper's figure draws it (192 CTE-Arm nodes, 2^0..2^24
// bytes, 90 bins, 4 trials), and to allocate nothing doing so.
func TestSpreadAtDifferential(t *testing.T) {
	d, err := Figure5(tofu(t, 192), 0, 24, 90, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, size := range d.Sizes {
		got, want := d.SpreadAt(i), referenceSpreadAt(d, i)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("size %v: SpreadAt %v, reference %v", size, got, want)
		}
		if allocs := testing.AllocsPerRun(5, func() { d.SpreadAt(i) }); allocs != 0 {
			t.Errorf("size %v: SpreadAt allocates %v times", size, allocs)
		}
	}
	empty := &Distribution{Sizes: []units.Bytes{1}, Hist: []*stats.Histogram{stats.NewHistogram(-4, 1.2, 90)}}
	if got := empty.SpreadAt(0); got != 0 {
		t.Errorf("empty histogram: SpreadAt %v, want 0", got)
	}
}

// referenceFigure4 is Figure4 as one serial loop over every ordered pair.
// It is the oracle of TestFigureSweepsDifferential: keep it simple, do not
// optimise or shard it.
func referenceFigure4(f *interconnect.Fabric, size units.Bytes, iters int) [][]units.BytesPerSecond {
	n := f.Topo.Nodes()
	bw := make([][]units.BytesPerSecond, n)
	for s := 0; s < n; s++ {
		bw[s] = make([]units.BytesPerSecond, n)
		for r := 0; r < n; r++ {
			if s == r {
				continue
			}
			bw[s][r] = f.SustainedBandwidth(s, r, size, iters)
		}
	}
	return bw
}

// referenceFigure5 is Figure5 as one serial loop: every size, every
// ordered pair, binned into one histogram per size for each of the bin
// counts given, so one pass serves several. It is the oracle of
// TestFigureSweepsDifferential and TestFigure5PaperSweepDifferential:
// keep it simple, do not optimise or shard it.
func referenceFigure5(f *interconnect.Fabric, minExp, maxExp, iters int, binCounts ...int) [][]*stats.Histogram {
	n := f.Topo.Nodes()
	hists := make([][]*stats.Histogram, len(binCounts))
	for exp := minExp; exp <= maxExp; exp++ {
		size := units.Bytes(math.Pow(2, float64(exp)))
		for k, bins := range binCounts {
			hists[k] = append(hists[k], stats.NewHistogram(-4, 1.2, bins))
		}
		for s := 0; s < n; s++ {
			for r := 0; r < n; r++ {
				if s == r {
					continue
				}
				bw := f.SustainedBandwidth(s, r, size, iters)
				for k := range binCounts {
					hists[k][len(hists[k])-1].Add(math.Log10(bw.GB()))
				}
			}
		}
	}
	return hists
}

// TestFigureSweepsDifferential requires the sharded Figure4 and Figure5 to
// reproduce the serial references exactly: every Fig. 4 cell in
// math.Float64bits and every Fig. 5 bin count. It covers the CTE-Arm TofuD
// (192 nodes, degraded receiver 23), ThunderX2's 40-node Infiniband fat
// tree and a 12-node TofuD, at three noise seeds, each at GOMAXPROCS 1, 2,
// 3, 5 and 16; 16 is more than the 12-node fabric has senders.
// Fig. 4 runs at the paper's 256 B and 16 trials. Fig. 5 runs at 2 trials
// over 256 B..4 MiB, which crosses every protocol and noise boundary of
// both fabrics.
func TestFigureSweepsDifferential(t *testing.T) {
	fabrics := []struct {
		name  string
		build func(machine.Machine, int) (*interconnect.Fabric, error)
		m     machine.Machine
		nodes int
	}{
		{"cte-arm", interconnect.NewTofuD, machine.CTEArm(), 192},
		{"thunderx2", interconnect.NewInfiniband, machine.ThunderX2(), 40},
		{"tofud-12", interconnect.NewTofuD, machine.CTEArm(), 12},
	}
	const minExp, maxExp, bins, iters5 = 8, 22, 90, 2
	for _, fc := range fabrics {
		for seed := range uint64(3) {
			m := fc.m
			if seed != 0 { // seed 0 keeps the fabric's built-in noise seed
				m.Network.Seed = seed
			}
			f, err := fc.build(m, fc.nodes)
			if err != nil {
				t.Fatal(err)
			}
			want4 := referenceFigure4(f, 256, DefaultIterations)
			want5 := referenceFigure5(f, minExp, maxExp, iters5, bins)[0]
			for _, procs := range []int{1, 2, 3, 5, 16} {
				name := fmt.Sprintf("%s/seed%d/procs%d", fc.name, seed, procs)
				h, d := sweepAt(t, procs, f, minExp, maxExp, bins, iters5)
				if len(h.BW) != len(want4) {
					t.Fatalf("%s: Fig. 4 has %d rows, reference %d", name, len(h.BW), len(want4))
				}
				for s, row := range want4 {
					for r, bw := range row {
						if math.Float64bits(float64(h.BW[s][r])) != math.Float64bits(float64(bw)) {
							t.Fatalf("%s: Fig. 4 cell (%d, %d) = %v, reference %v", name, s, r, h.BW[s][r], bw)
						}
					}
				}
				if len(d.Hist) != len(want5) {
					t.Fatalf("%s: Fig. 5 has %d sizes, reference %d", name, len(d.Hist), len(want5))
				}
				for i, h := range want5 {
					if !slices.Equal(d.Hist[i].Counts, h.Counts) {
						t.Fatalf("%s: Fig. 5 counts at %v differ\n got %v\nwant %v", name, d.Sizes[i], d.Hist[i].Counts, h.Counts)
					}
				}
			}
		}
	}
}

// TestFigure5PaperSweepDifferential requires Figure5 at the paper's own
// sweep (192 CTE-Arm nodes, 2^0..2^24 B, 4 trials) to reproduce every bin
// count of referenceFigure5 at 90, 900 and 2,000 bins: at noise seeds 0
// (the built-in one), 7 and 2031 at GOMAXPROCS 2, and with
// TestTransferPricingDifferential's three link faults at GOMAXPROCS 1 and
// 3. Three more cases at GOMAXPROCS 2 leave one thing of the paper's sweep
// out: 5 trials, past the 4 whose lottery patterns a Sweep's memo keeps;
// 1 trial; and MN4's OmniPath fat tree over 192 nodes in place of the
// TofuD torus. At 90 bins about half the cells are binned before any draw,
// a sixth on the persistent factor's range, a third on every factor's
// range and 1% drawn in full; at 900 bins no cell is binned before a
// draw and a tenth are drawn in full.
func TestFigure5PaperSweepDifferential(t *testing.T) {
	const minExp, maxExp = 0, 24
	faulted := machine.CTEArm()
	fm, err := (&faultsim.Spec{Links: []faultsim.LinkFault{
		{Src: 0, Dst: 23, BandwidthFactor: 0.3},
		{Src: 1, Dst: 2, ExtraLatencySeconds: 2e-6},
		{Src: 23, Dst: 5, BandwidthFactor: 0.5, ExtraLatencySeconds: 1e-6},
	}}).Compile(192, 0)
	if err != nil {
		t.Fatal(err)
	}
	faulted.Faults = fm
	cases := []struct {
		name  string
		build func(machine.Machine, int) (*interconnect.Fabric, error)
		m     machine.Machine
		iters int
		procs []int
	}{
		{"seed0", interconnect.NewTofuD, machine.CTEArm(), 4, []int{2}},
		{"seed7", interconnect.NewTofuD, machine.CTEArm(), 4, []int{2}},
		{"seed2031", interconnect.NewTofuD, machine.CTEArm(), 4, []int{2}},
		{"link-faults", interconnect.NewTofuD, faulted, 4, []int{1, 3}},
		{"trials5", interconnect.NewTofuD, machine.CTEArm(), 5, []int{2}},
		{"trials1", interconnect.NewTofuD, machine.CTEArm(), 1, []int{2}},
		{"mn4", interconnect.NewOmniPath, machine.MareNostrum4(), 4, []int{2}},
	}
	cases[1].m.Network.Seed = 7
	cases[2].m.Network.Seed = 2031
	for _, c := range cases {
		f, err := c.build(c.m, 192)
		if err != nil {
			t.Fatal(err)
		}
		binCounts := []int{90, 900, 2000}
		wants := referenceFigure5(f, minExp, maxExp, c.iters, binCounts...)
		for k, bins := range binCounts {
			want := wants[k]
			for _, procs := range c.procs {
				name := fmt.Sprintf("%s/bins%d/procs%d", c.name, bins, procs)
				d := figure5At(t, procs, f, minExp, maxExp, bins, c.iters)
				for i, h := range want {
					if !slices.Equal(d.Hist[i].Counts, h.Counts) {
						t.Fatalf("%s: counts at %v differ\n got %v\nwant %v", name, d.Sizes[i], d.Hist[i].Counts, h.Counts)
					}
				}
			}
		}
	}
}

// figure5At runs Figure5 with GOMAXPROCS set to procs, and restores
// GOMAXPROCS before returning.
func figure5At(t *testing.T, procs int, f *interconnect.Fabric, minExp, maxExp, bins, iters int) *Distribution {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	d, err := Figure5(f, minExp, maxExp, bins, iters)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sweepAt runs Figure4 (256 B, the paper's trials) and Figure5 with
// GOMAXPROCS set to procs, and restores GOMAXPROCS before returning.
func sweepAt(t *testing.T, procs int, f *interconnect.Fabric, minExp, maxExp, bins, iters int) (*Heatmap, *Distribution) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	h, err := Figure4(f, 256, DefaultIterations)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Figure5(f, minExp, maxExp, bins, iters)
	if err != nil {
		t.Fatal(err)
	}
	return h, d
}

func TestFigure5Errors(t *testing.T) {
	f := tofu(t, 12)
	if _, err := Figure5(f, 10, 5, 10, 4); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := Figure5(f, -1, 5, 10, 4); err == nil {
		t.Error("negative exponent accepted")
	}
	if _, err := Figure5(f, 0, 4, 0, 4); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := Figure5(f, 0, 4, 10, 0); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestMeasureLatency(t *testing.T) {
	f := tofu(t, 24)
	sizes := []units.Bytes{0, 8, 1024, 64 * 1024}
	pts, err := MeasureLatency(f, 0, 7, sizes, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(sizes) {
		t.Fatalf("%d points", len(pts))
	}
	// Zero-byte latency must sit at/above the physical one-way latency and
	// below a few microseconds.
	floor := float64(f.Latency(0, 7))
	if float64(pts[0].Latency) < floor {
		t.Errorf("0B latency %v below physical floor %v", pts[0].Latency, units.Seconds(floor))
	}
	if pts[0].Latency > 5e-6 {
		t.Errorf("0B latency implausibly high: %v", pts[0].Latency)
	}
	// Latency grows with size, modulo the small persistent per-size
	// jitter (a real OSU run wiggles the same way at tiny sizes).
	for i := 1; i < len(pts); i++ {
		if float64(pts[i].Latency) < 0.95*float64(pts[i-1].Latency) {
			t.Errorf("latency dropped at size %v: %v after %v",
				pts[i].Size, pts[i].Latency, pts[i-1].Latency)
		}
	}
	// And the large size clearly dominates the small one.
	if pts[len(pts)-1].Latency < 2*pts[0].Latency {
		t.Error("64 KiB latency should far exceed 0 B latency")
	}
}

func TestMeasureLatencyErrors(t *testing.T) {
	f := tofu(t, 12)
	if _, err := MeasureLatency(f, 0, 1, []units.Bytes{8}, 0); err == nil {
		t.Error("zero iterations accepted")
	}
	if _, err := MeasureLatency(f, 0, 1, nil, 4); err == nil {
		t.Error("no sizes accepted")
	}
	if _, err := MeasureLatency(f, 0, 99, []units.Bytes{8}, 4); err == nil {
		t.Error("invalid node accepted")
	}
}

func TestDeterminism(t *testing.T) {
	f1, f2 := tofu(t, 24), tofu(t, 24)
	h1, _ := Figure4(f1, 256, 4)
	h2, _ := Figure4(f2, 256, 4)
	for s := range h1.BW {
		for r := range h1.BW[s] {
			if h1.BW[s][r] != h2.BW[s][r] {
				t.Fatalf("heatmap not deterministic at (%d,%d)", s, r)
			}
		}
	}
}

func TestMeasurePairContextCancelled(t *testing.T) {
	f := tofu(t, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MeasurePairContext(ctx, f, 0, 1, 256, 8); !errors.Is(err, context.Canceled) {
		t.Errorf("MeasurePairContext(cancelled) = %v, want context.Canceled", err)
	}
	// The context-free entry point must still work unchanged.
	if _, err := MeasurePair(f, 0, 1, 256, 8); err != nil {
		t.Errorf("MeasurePair: %v", err)
	}
}

// BenchmarkFigure4 sweeps all 192x191 ordered node pairs of CTE-Arm at
// 256 B, as Fig. 4 draws them, and locates the degraded receiver.
func BenchmarkFigure4(b *testing.B) {
	f, err := interconnect.NewTofuD(machine.CTEArm(), 192)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var h *Heatmap
	for range b.N {
		if h, err = Figure4(f, 256, DefaultIterations); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(h.DegradedReceivers(0.5))), "degraded-nodes") // paper: 1 (arms0b1-11c)
}

// BenchmarkFigure5 bins the bandwidth of all CTE-Arm pairs over message
// sizes 2^0..2^24, as Fig. 5 draws them.
func BenchmarkFigure5(b *testing.B) {
	f, err := interconnect.NewTofuD(machine.CTEArm(), 192)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var d *Distribution
	for range b.N {
		if d, err = Figure5(f, 0, 24, 90, 4); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(d.BimodalSizes(0.12))), "bimodal-sizes")
}
