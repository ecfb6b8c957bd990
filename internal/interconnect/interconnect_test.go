package interconnect

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"clustereval/internal/faultsim"
	"clustereval/internal/machine"
	"clustereval/internal/stats"
	"clustereval/internal/units"
	"clustereval/internal/xrand"
)

func tofu(t *testing.T, nodes int) *Fabric {
	t.Helper()
	f, err := NewTofuD(machine.CTEArm(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func opa(t *testing.T, nodes int) *Fabric {
	t.Helper()
	f, err := NewOmniPath(machine.MareNostrum4(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestLatencyGrowsWithHops(t *testing.T) {
	f := tofu(t, 192)
	// Find a 1-hop and a far pair.
	near, far := -1, -1
	for j := 1; j < 192; j++ {
		h := f.Topo.Hops(0, j)
		if h == 1 && near < 0 {
			near = j
		}
		if h == f.Topo.Diameter() && far < 0 {
			far = j
		}
	}
	if near < 0 || far < 0 {
		t.Fatal("could not find near/far pairs")
	}
	if !(f.Latency(0, far) > f.Latency(0, near)) {
		t.Errorf("latency near=%v far=%v", f.Latency(0, near), f.Latency(0, far))
	}
	if f.Latency(3, 3) != f.IntraNodeLatency {
		t.Error("self latency should be intra-node")
	}
}

func TestMessageTimePositiveAndMonotoneInSize(t *testing.T) {
	f := tofu(t, 24)
	// Average over trials to wash out jitter; check monotonicity in size.
	avg := func(size units.Bytes) float64 {
		var total units.Seconds
		const n = 64
		for i := 0; i < n; i++ {
			total += f.MessageTime(0, 5, size, uint64(i))
		}
		return float64(total) / n
	}
	prev := 0.0
	for _, size := range []units.Bytes{1, 64, 1024, 32 * 1024, 1 << 20, 8 << 20} {
		cur := avg(size)
		if cur <= 0 {
			t.Fatalf("non-positive message time for %v", size)
		}
		if cur < prev {
			t.Errorf("mean time decreased from %v at size %v", prev, size)
		}
		prev = cur
	}
}

func TestBandwidthApproachesLinkPeak(t *testing.T) {
	// Large messages approach link peak, but per-pair persistent
	// congestion keeps some pairs well below it (Fig. 5's wide >1 MB
	// band). The best pair must get close; no pair may exceed the peak.
	f := tofu(t, 24)
	peak := float64(f.Net.LinkPeak)
	best := 0.0
	for dst := 1; dst < 24; dst++ {
		bw := float64(f.SustainedBandwidth(0, dst, units.Bytes(16*units.MiB), 32))
		if bw > peak*1.0001 {
			t.Errorf("pair 0->%d exceeds link peak: %v", dst, units.BytesPerSecond(bw))
		}
		if _, degraded := f.DegradedRecv[dst]; !degraded && bw < 0.3*peak {
			t.Errorf("pair 0->%d implausibly slow: %v", dst, units.BytesPerSecond(bw))
		}
		if bw > best {
			best = bw
		}
	}
	if best < 0.8*peak {
		t.Errorf("best large-message bandwidth = %v, want near peak %v",
			units.BytesPerSecond(best), f.Net.LinkPeak)
	}
}

func TestSmallMessageLatencyBound(t *testing.T) {
	f := tofu(t, 192)
	// 256 B across the torus: bandwidth must be far below peak and depend
	// on distance (this is what draws Fig. 4's diagonals).
	var bwNear, bwFar units.BytesPerSecond
	for j := 1; j < 192; j++ {
		h := f.Topo.Hops(0, j)
		if h == 1 && bwNear == 0 {
			bwNear = f.SustainedBandwidth(0, j, 256, 100)
		}
		if h == f.Topo.Diameter() && bwFar == 0 {
			bwFar = f.SustainedBandwidth(0, j, 256, 100)
		}
	}
	if bwNear < bwFar {
		t.Errorf("near pair slower than far pair: %v vs %v", bwNear, bwFar)
	}
	if bwNear > 0.2*f.Net.LinkPeak {
		t.Errorf("256B bandwidth %v suspiciously close to peak", bwNear)
	}
}

func TestDegradedReceiver(t *testing.T) {
	f := tofu(t, 192)
	const bad = 23 // arms0b1-11c
	size := units.Bytes(4 * units.MiB)
	asRecv := f.SustainedBandwidth(0, bad, size, 16)
	asSend := f.SustainedBandwidth(bad, 0, size, 16)
	if float64(asRecv) > 0.4*float64(asSend) {
		t.Errorf("degraded node: recv %v should be far below send %v", asRecv, asSend)
	}
	// Sender side is unaffected: compare against a healthy pair.
	healthy := f.SustainedBandwidth(0, 24, size, 16)
	if math.Abs(float64(asSend)-float64(healthy))/float64(healthy) > 0.25 {
		t.Errorf("degraded node as sender %v differs too much from healthy %v", asSend, healthy)
	}
}

func TestSmallClusterHasNoDegradedNode(t *testing.T) {
	f := tofu(t, 12)
	if len(f.DegradedRecv) != 0 {
		t.Error("12-node fabric should not include node 23 degradation")
	}
}

func TestBimodalMidSizes(t *testing.T) {
	f := tofu(t, 192)
	// At 16 KiB, different (pair, trial) draws should fall into two bands.
	size := units.Bytes(16 * units.KiB)
	fast, slow := 0, 0
	for src := 0; src < 24; src++ {
		for dst := 24; dst < 48; dst++ {
			bw := float64(f.Bandwidth(src, dst, size, 0))
			if bw > 0.75*float64(f.Net.LinkPeak)*float64(size)/float64(size) {
				// classification below via ratio to median instead
				_ = bw
			}
		}
	}
	// Classify by comparing against the healthy α-β expectation.
	for src := 0; src < 48; src++ {
		for trial := uint64(0); trial < 4; trial++ {
			dst := (src + 53) % 192
			expect := float64(size) / (float64(f.Latency(src, dst)) + float64(size)/float64(f.Net.LinkPeak))
			got := float64(f.Bandwidth(src, dst, size, trial))
			if got > 0.8*expect {
				fast++
			} else {
				slow++
			}
		}
	}
	if fast == 0 || slow == 0 {
		t.Errorf("mid-size distribution not bimodal: fast=%d slow=%d", fast, slow)
	}
	frac := float64(slow) / float64(fast+slow)
	if frac < 0.15 || frac > 0.60 {
		t.Errorf("slow-path fraction = %.2f, want near %.2f", frac, f.SlowPathProb)
	}
}

func TestLargeMessagesMoreVariable(t *testing.T) {
	f := tofu(t, 24)
	// Across repeated transfers of one pair (transient noise)...
	cvTrials := func(size units.Bytes) float64 {
		var xs []float64
		for i := uint64(0); i < 200; i++ {
			xs = append(xs, float64(f.MessageTime(0, 7, size, i)))
		}
		return cv(xs)
	}
	small := cvTrials(256)
	large := cvTrials(units.Bytes(4 * units.MiB))
	if large < 3*small {
		t.Errorf("per-trial variability: small cv=%v, large cv=%v", small, large)
	}
	// ...and across pairs (persistent congestion), which is what Fig. 5
	// actually plots, the large-message spread must be much wider still.
	cvPairs := func(size units.Bytes) float64 {
		var xs []float64
		for dst := 1; dst < 24; dst++ {
			xs = append(xs, float64(f.SustainedBandwidth(0, dst, size, 16)))
		}
		return cv(xs)
	}
	if cvPairs(units.Bytes(4*units.MiB)) < 2*large {
		t.Error("persistent per-pair congestion should dominate transient noise")
	}
}

func cv(xs []float64) float64 {
	mean, ss := 0.0, 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(xs)-1)) / mean
}

func TestRendezvousStep(t *testing.T) {
	f := tofu(t, 24)
	f.NoiseSmall, f.NoiseLarge = 0, 0 // make the protocol step visible
	below := f.MessageTime(0, 5, f.EagerThreshold, 0)
	above := f.MessageTime(0, 5, f.EagerThreshold+1, 1)
	extra := float64(above - below)
	if extra < 1.5*float64(f.Latency(0, 5)) {
		t.Errorf("rendezvous switch should add ~2 latencies, added %v", units.Seconds(extra))
	}
}

func TestDeterminism(t *testing.T) {
	f1 := tofu(t, 48)
	f2 := tofu(t, 48)
	for trial := uint64(0); trial < 10; trial++ {
		a := f1.MessageTime(1, 40, 12345, trial)
		b := f2.MessageTime(1, 40, 12345, trial)
		if a != b {
			t.Fatalf("non-deterministic message time at trial %d", trial)
		}
	}
}

func TestIntraNode(t *testing.T) {
	f := opa(t, 96)
	inter := f.MessageTime(0, 1, units.Bytes(1*units.MiB), 0)
	intra := f.MessageTime(0, 0, units.Bytes(1*units.MiB), 0)
	if intra >= inter {
		t.Errorf("intra-node %v should beat inter-node %v", intra, inter)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	f := opa(t, 96)
	defer func() {
		if recover() == nil {
			t.Error("negative size accepted")
		}
	}()
	f.MessageTime(0, 1, -1, 0)
}

func TestSustainedBandwidthPanicsOnZeroIters(t *testing.T) {
	f := opa(t, 96)
	defer func() {
		if recover() == nil {
			t.Error("zero iterations accepted")
		}
	}()
	f.SustainedBandwidth(0, 1, 100, 0)
}

// Property: message time is always at least the latency floor plus the ideal
// transfer time scaled by the worst-case noise clamp.
func TestMessageTimeLowerBoundProperty(t *testing.T) {
	f := tofu(t, 48)
	q := func(srcRaw, dstRaw uint8, sizeRaw uint32, trial uint16) bool {
		src := int(srcRaw) % 48
		dst := int(dstRaw) % 48
		size := units.Bytes(sizeRaw % (1 << 22))
		got := float64(f.MessageTime(src, dst, size, uint64(trial)))
		var floor float64
		if src == dst {
			floor = float64(f.IntraNodeLatency)
		} else {
			floor = float64(f.Latency(src, dst))
		}
		// Noise is one-sided: time never drops below the ideal floor.
		return got >= floor-1e-15
	}
	if err := quick.Check(q, nil); err != nil {
		t.Error(err)
	}
}

func TestOmniPathUniformity(t *testing.T) {
	f := opa(t, 96)
	// Fat-tree distances are uniform across leaves: the spread of 256 B
	// bandwidth across pairs must be far smaller than on the torus.
	var min, max units.BytesPerSecond
	for dst := 24; dst < 96; dst += 7 {
		bw := f.SustainedBandwidth(0, dst, 256, 50)
		if min == 0 || bw < min {
			min = bw
		}
		if bw > max {
			max = bw
		}
	}
	if float64(max)/float64(min) > 1.15 {
		t.Errorf("cross-leaf OPA bandwidth spread too wide: %v..%v", min, max)
	}
}

// TestMessagePricingAllocFree pins the per-message cost model to zero heap
// allocations on both clusters' fabrics: latency, MessageTime and
// SustainedBandwidth, and a Sweep's Route and Bin at Fig. 5's 90 bins once
// its memo holds the route's shape, in every protocol regime (eager, the
// 1 KiB–256 KiB buffer lottery, rendezvous, >1 MiB contention), to a
// healthy node and to the degraded receiver.
func TestMessagePricingAllocFree(t *testing.T) {
	sizes := []units.Bytes{
		units.Bytes(8), units.Bytes(1 * units.KiB), units.Bytes(16 * units.KiB),
		units.Bytes(64 * units.KiB), units.Bytes(256 * units.KiB),
		units.Bytes(512 * units.KiB), units.Bytes(4 * units.MiB),
	}
	bins := newLogBins(90)
	for name, f := range map[string]*Fabric{"cte-arm": tofu(t, 192), "mn4": opa(t, 3456)} {
		for _, dst := range []int{23, 150} { // 23 is arms0b1-11c on CTE-Arm
			if allocs := testing.AllocsPerRun(50, func() { f.Latency(0, dst) }); allocs != 0 {
				t.Errorf("%s Latency(0, %d) allocates %v times", name, dst, allocs)
			}
			for _, size := range sizes {
				if allocs := testing.AllocsPerRun(50, func() { f.MessageTime(0, dst, size, 3) }); allocs != 0 {
					t.Errorf("%s MessageTime(0, %d, %v) allocates %v times", name, dst, float64(size), allocs)
				}
				if allocs := testing.AllocsPerRun(50, func() { f.SustainedBandwidth(0, dst, size, 16) }); allocs != 0 {
					t.Errorf("%s SustainedBandwidth(0, %d, %v, 16) allocates %v times", name, dst, float64(size), allocs)
				}
			}
			for _, trials := range []int{4, 16} {
				sweep := f.NewSweep(sizes, trials, bins)
				sweep.Route(0, dst)
				for i := range sizes {
					sweep.Bin(i) // fills the memo's verdict for this pattern
				}
				if allocs := testing.AllocsPerRun(50, func() { sweep.Route(0, dst) }); allocs != 0 {
					t.Errorf("%s Sweep.Route(0, %d) allocates %v times", name, dst, allocs)
				}
				for i, size := range sizes {
					if allocs := testing.AllocsPerRun(50, func() { sweep.Bin(i) }); allocs != 0 {
						t.Errorf("%s Sweep.Bin at (0, %d, %v, %d) allocates %v times", name, dst, float64(size), trials, allocs)
					}
				}
			}
		}
	}
}

// BenchmarkMessageTime prices one message per operation, cycling over
// every ordered pair of CTE-Arm nodes (self-pairs included), at Fig. 5's
// sizes from 1 B to 16 MiB in steps of 16×.
func BenchmarkMessageTime(b *testing.B) {
	f, err := NewTofuD(machine.CTEArm(), 192)
	if err != nil {
		b.Fatal(err)
	}
	nodes := f.Topo.Nodes()
	for e := 0; e <= 24; e += 4 {
		size := units.Bytes(int64(1) << e)
		b.Run(fmt.Sprintf("size=%d", int64(size)), func(b *testing.B) {
			b.ReportAllocs()
			var total units.Seconds
			for i := range b.N {
				pair := i % (nodes * nodes)
				total += f.MessageTime(pair/nodes, pair%nodes, size, 0)
			}
			if total < 0 {
				b.Fatal("negative message time")
			}
		})
	}
}

// BenchmarkSustainedBandwidth runs one OSU-style bandwidth measurement per
// operation, cycling over every ordered pair of distinct CTE-Arm nodes:
// Fig. 4's 256 B at its 16 trials, and Fig. 5's sizes from 1 B to 16 MiB
// in steps of 16× at its 4 trials.
func BenchmarkSustainedBandwidth(b *testing.B) {
	f, err := NewTofuD(machine.CTEArm(), 192)
	if err != nil {
		b.Fatal(err)
	}
	nodes := f.Topo.Nodes()
	run := func(name string, size units.Bytes, trials int) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var total units.BytesPerSecond
			for i := range b.N {
				src, dst := (i/(nodes-1))%nodes, i%(nodes-1)
				if dst >= src {
					dst++
				}
				total += f.SustainedBandwidth(src, dst, size, trials)
			}
			if total < 0 {
				b.Fatal("negative bandwidth")
			}
		})
	}
	run("fig4/size=256/trials=16", 256, 16)
	for e := 0; e <= 24; e += 4 {
		size := units.Bytes(int64(1) << e)
		run(fmt.Sprintf("fig5/size=%d/trials=4", int64(size)), size, 4)
	}
}

// referenceMessageTime prices one message in a single straight-line
// function that works every quantity out again for each trial. It is the
// oracle of TestTransferPricingDifferential: keep it simple, do not
// optimise it.
func referenceMessageTime(f *Fabric, src, dst int, size units.Bytes, trial uint64) units.Seconds {
	if size < 0 {
		panic(fmt.Sprintf("interconnect: negative message size %v", float64(size)))
	}
	if src == dst {
		return f.IntraNodeLatency + units.TimeFor(size, f.IntraNodeBW)
	}

	lat := f.Latency(src, dst)
	bw := float64(f.Net.LinkPeak)
	if le, ok := f.Faults.Link(src, dst); ok && le.BandwidthFactor > 0 {
		bw *= le.BandwidthFactor
	}

	stream := xrand.MixN(f.Seed, uint64(src), uint64(dst), uint64(size), trial)
	extraLat := units.Seconds(0)
	if size >= f.MidSizeLow && size <= f.MidSizeHigh {
		if p := float64(stream%1000) / 1000.0; p < f.SlowPathProb {
			bw *= f.SlowPathFactor
			extraLat = lat
		}
	}

	t := lat + extraLat + units.TimeFor(size, units.BytesPerSecond(bw))
	if size > f.EagerThreshold {
		t += 2 * lat
	}
	if fac, ok := f.DegradedRecv[dst]; ok && fac > 0 {
		t = t / units.Seconds(fac)
	}

	eps := f.noiseAmplitude(size)
	persistent := xrand.New(xrand.MixN(f.Seed, uint64(src), uint64(dst), uint64(size)) ^ 0xc0de)
	transient := xrand.New(stream ^ 0xfeed)
	j := persistent.SlowJitter(0.7*eps) * transient.SlowJitter(0.3*eps)
	return t * units.Seconds(j)
}

// referenceSustainedBandwidth sums referenceMessageTime over the same
// trials, in the same order, as SustainedBandwidth.
func referenceSustainedBandwidth(f *Fabric, src, dst int, size units.Bytes, n int) units.BytesPerSecond {
	var total units.Seconds
	for i := 0; i < n; i++ {
		total += referenceMessageTime(f, src, dst, size, uint64(i))
	}
	return units.BytesPerSecond(float64(size) * float64(n) / float64(total))
}

// logBins bins bandwidths by log10 of GB/s over Fig. 5's domain, as
// osu.Figure5 does, and settles ranges from the guarded bin edges in B/s.
type logBins struct {
	h     *stats.Histogram
	edges stats.GuardedEdges
}

func newLogBins(bins int) *logBins {
	h := stats.NewHistogram(-4, 1.2, bins)
	inv := func(x float64) float64 { return math.Pow(10, x) * units.Giga }
	return &logBins{h: h, edges: h.GuardedEdges(inv, 1e-9)}
}

func (b *logBins) Bin(bw units.BytesPerSecond) int { return b.h.Bin(math.Log10(bw.GB())) }

func (b *logBins) Settled(lo, hi units.BytesPerSecond) (int, bool) {
	return b.edges.Settled(float64(lo), float64(hi))
}

// TestTransferPricingDifferential requires MessageTime and
// SustainedBandwidth, which price each transfer once and then run its
// trials, to match referenceMessageTime bit for bit, and a Sweep to bin
// referenceSustainedBandwidth as the binning does: on the TofuD
// torus (with the degraded receiver, node 23), the OmniPath and the
// Infiniband fat trees; with no fault model and with links that lose
// bandwidth, gain latency, or both; at both sides of every protocol and
// noise boundary; for self-transfers; on a noiseless TofuD, where no
// jitter is drawn; at negative noise amplitudes; and with more route
// shapes than a Sweep's memo holds.
func TestTransferPricingDifferential(t *testing.T) {
	links := []faultsim.LinkFault{
		{Src: 0, Dst: 23, BandwidthFactor: 0.3},
		{Src: 1, Dst: 2, ExtraLatencySeconds: 2e-6},
		{Src: 23, Dst: 5, BandwidthFactor: 0.5, ExtraLatencySeconds: 1e-6},
	}
	fabrics := []struct {
		name  string
		build func(machine.Machine, int) (*Fabric, error)
		m     machine.Machine
		nodes int
	}{
		{"cte-arm", NewTofuD, machine.CTEArm(), 192},
		{"mn4", NewOmniPath, machine.MareNostrum4(), 96},
		{"thunderx2", NewInfiniband, machine.ThunderX2(), 48},
	}
	for _, fc := range fabrics {
		for _, faulted := range []bool{false, true} {
			m := fc.m
			name := fc.name + "/no-faults"
			if faulted {
				m.Faults = compiled(t, &faultsim.Spec{Links: links}, fc.nodes)
				name = fc.name + "/link-faults"
			}
			f, err := fc.build(m, fc.nodes)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(name, func(t *testing.T) { checkTransferPricing(t, f) })
		}
	}
	quiet := tofu(t, 192)
	quiet.NoiseSmall, quiet.NoiseLarge = 0, 0
	t.Run("cte-arm/noiseless", func(t *testing.T) { checkTransferPricing(t, quiet) })
	// A negative amplitude makes SlowJitter speed transfers up, outside
	// the range a Sweep's bounds assume, so it must bin exactly.
	negative := tofu(t, 192)
	negative.NoiseSmall, negative.NoiseLarge = -0.01, -0.2
	t.Run("cte-arm/negative-noise", func(t *testing.T) { checkTransferPricing(t, negative) })
	// Links from node 0 that each keep a different share of their
	// bandwidth give its routes more shapes than a Sweep's memo holds.
	var many []faultsim.LinkFault
	for dst := 1; dst <= 2*maxShapes; dst++ {
		many = append(many, faultsim.LinkFault{Src: 0, Dst: dst, BandwidthFactor: 0.5 + float64(dst)/1000})
	}
	m := machine.CTEArm()
	m.Faults = compiled(t, &faultsim.Spec{Links: many}, 192)
	crowded, err := NewTofuD(m, 192)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("cte-arm/more-shapes-than-memo", func(t *testing.T) { checkTransferPricing(t, crowded) })
}

func checkTransferPricing(t *testing.T, f *Fabric) {
	n := f.Topo.Nodes()
	kib := units.Bytes(units.KiB)
	sizes := []units.Bytes{0, 1,
		f.MidSizeLow - 1, f.MidSizeLow, f.MidSizeLow + 1,
		f.EagerThreshold - 1, f.EagerThreshold, f.EagerThreshold + 1,
		64 * kib, 64*kib + 1,
		f.MidSizeHigh - 1, f.MidSizeHigh, f.MidSizeHigh + 1,
		units.Bytes(units.MiB) - 1, units.Bytes(units.MiB), units.Bytes(16 * units.MiB),
	}
	// At 90 bins a transfer is binned before any draw, on the persistent
	// factor's range, on every factor's range or drawn in full; at 900
	// none is binned before a draw, and at 2,000 more are drawn in full.
	binnings := []*logBins{newLogBins(90), newLogBins(900), newLogBins(2000)}
	nodes := []int{0, 1, 2, 5, 23, n / 2, n - 1} // every fault endpoint, 23 as sender and receiver
	for _, size := range sizes {
		for _, src := range nodes {
			for _, dst := range nodes {
				for _, trial := range []uint64{0, 1, 2, 3, 15, 1 << 40} {
					got, want := f.MessageTime(src, dst, size, trial), referenceMessageTime(f, src, dst, size, trial)
					if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
						t.Fatalf("MessageTime(%d, %d, %v, %d) = %v, reference %v",
							src, dst, float64(size), trial, float64(got), float64(want))
					}
				}
				for _, trials := range []int{1, 4, 16} {
					got, want := f.SustainedBandwidth(src, dst, size, trials), referenceSustainedBandwidth(f, src, dst, size, trials)
					if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
						t.Fatalf("SustainedBandwidth(%d, %d, %v, %d) = %v, reference %v",
							src, dst, float64(size), trials, float64(got), float64(want))
					}
				}
			}
		}
	}
	// A Sweep over 7x7 pairs at trial counts below, at and above the 4
	// whose lottery patterns its memo keeps, and above the 64 a pattern
	// can hold; then over every receiver of each sender above, so that
	// some bandwidths fall near a bin edge. Each sweep runs every pair,
	// so routes of one shape share its memo.
	checkSustainedBin(t, f, nodes, nodes, sizes, []int{1, 2, 4, 5, 16, 65}, binnings)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	checkSustainedBin(t, f, nodes, all, sizes, []int{1, 4, 5}, binnings)
}

// checkSustainedBin requires a Sweep over sizes, at each trial count and
// binning, to bin referenceSustainedBandwidth from each src to each dst
// as the binning does. One sweep serves every pair.
func checkSustainedBin(t *testing.T, f *Fabric, srcs, dsts []int, sizes []units.Bytes, trialCounts []int, binnings []*logBins) {
	t.Helper()
	for _, trials := range trialCounts {
		sweeps := make([]*Sweep, len(binnings))
		for k, b := range binnings {
			sweeps[k] = f.NewSweep(sizes, trials, b)
		}
		for _, src := range srcs {
			for _, dst := range dsts {
				for _, sweep := range sweeps {
					sweep.Route(src, dst)
				}
				for i, size := range sizes {
					bw := referenceSustainedBandwidth(f, src, dst, size, trials)
					for k, b := range binnings {
						if got, want := sweeps[k].Bin(i), b.Bin(bw); got != want {
							t.Fatalf("Sweep.Bin(%d, %d, %v, %d) at %d bins = %d, reference %d (%v)",
								src, dst, float64(size), trials, len(b.h.Counts), got, want, float64(bw))
						}
					}
				}
			}
		}
	}
}
