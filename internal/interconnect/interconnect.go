// Package interconnect turns a topology plus the link parameters of Table I
// into a per-message cost model. The model is the classic α-β (latency +
// size/bandwidth) form, extended with the behaviours the paper's network
// experiments surface:
//
//   - per-hop latency, so hop distance on the TofuD torus produces the
//     diagonal banding of Fig. 4;
//   - an eager/rendezvous protocol switch plus a buffer-placement lottery
//     for mid-size messages, producing the bimodal bandwidth distribution
//     of Fig. 5 (1 kB – 256 kB);
//   - contention jitter growing with message size, producing the high
//     variability above 1 MB;
//   - injected receiver-side degradation for the faulty node arms0b1-11c.
package interconnect

import (
	"fmt"
	"math"

	"clustereval/internal/faultsim"
	"clustereval/internal/machine"
	"clustereval/internal/topology"
	"clustereval/internal/units"
	"clustereval/internal/xrand"
)

// Fabric is a configured interconnect cost model.
type Fabric struct {
	Topo topology.Topology
	Net  machine.Network

	// EagerThreshold is the message size above which the rendezvous
	// protocol (an extra control round trip) is used.
	EagerThreshold units.Bytes

	// MidSizeLow..MidSizeHigh bound the region where the transport's buffer
	// lottery makes bandwidth bimodal (Fig. 5).
	MidSizeLow, MidSizeHigh units.Bytes
	// SlowPathFactor is the bandwidth retained by the slow lottery outcome.
	SlowPathFactor float64
	// SlowPathProb is the probability of drawing the slow path.
	SlowPathProb float64

	// NoiseSmall and NoiseLarge are the relative jitter amplitudes for
	// small and >1 MiB messages; between them the amplitude interpolates.
	NoiseSmall, NoiseLarge float64

	// DegradedRecv maps node index to the bandwidth factor it achieves as a
	// receiver (1.0 = healthy). The paper's arms0b1-11c keeps full sender
	// bandwidth but very low receiver bandwidth.
	DegradedRecv map[int]float64

	// IntraNode models communication between ranks on the same node.
	IntraNodeBW      units.BytesPerSecond
	IntraNodeLatency units.Seconds

	// Seed anchors all deterministic noise.
	Seed uint64

	// Faults, when non-nil, is the injected fault scenario inherited from
	// the machine descriptor: per-link bandwidth degradation and extra
	// latency apply here, and mpisim worlds built on this fabric pick up
	// the per-node compute slowdowns and hard failures.
	Faults *faultsim.Model
}

// New builds the fabric matching the machine's interconnect kind — the
// TofuD torus for CTE-Arm, the OmniPath fat tree otherwise. It is the
// constructor the application models and the evaluation service use, so a
// machine descriptor fully determines its network model.
func New(m machine.Machine, nodes int) (*Fabric, error) {
	switch m.Network.Kind {
	case machine.TofuD:
		return NewTofuD(m, nodes)
	case machine.Infiniband:
		return NewInfiniband(m, nodes)
	default:
		return NewOmniPath(m, nodes)
	}
}

// fabricSeed picks the noise seed for a fabric: the machine's requested
// Network.Seed when set (CLI -seed flags and service job specs plumb it
// there), otherwise the built-in default that reproduces the paper.
func fabricSeed(m machine.Machine, def uint64) uint64 {
	if m.Network.Seed != 0 {
		return m.Network.Seed
	}
	return def
}

// NewTofuD builds the CTE-Arm fabric for the given node count, including the
// degraded receiver arms0b1-11c (node 23) when the cluster is large enough.
func NewTofuD(m machine.Machine, nodes int) (*Fabric, error) {
	topo, err := tofuTopology(m, nodes)
	if err != nil {
		return nil, err
	}
	f := &Fabric{
		Topo:             topo,
		Net:              m.Network,
		EagerThreshold:   units.Bytes(32 * units.KiB),
		MidSizeLow:       units.Bytes(1 * units.KiB),
		MidSizeHigh:      units.Bytes(256 * units.KiB),
		SlowPathFactor:   0.40,
		SlowPathProb:     0.35,
		NoiseSmall:       0.01,
		NoiseLarge:       0.50,
		DegradedRecv:     map[int]float64{},
		IntraNodeBW:      units.BytesPerSecond(20 * units.Giga),
		IntraNodeLatency: units.Seconds(0.25e-6),
		Seed:             fabricSeed(m, 0x7f0a64f),
		Faults:           m.Faults,
	}
	if nodes > 23 {
		f.DegradedRecv[23] = 0.22 // arms0b1-11c
	}
	return f, nil
}

// tofuTopology picks the torus shape for a TofuD fabric: the machine's
// pinned Topology.Dims when the fabric spans the whole machine (Fugaku's
// production 6-D shape), else the balanced shape derived from the node
// count — what every sub-allocation and the original presets always got.
func tofuTopology(m machine.Machine, nodes int) (topology.Topology, error) {
	if dims := m.Topology.Dims; len(dims) > 0 {
		product := 1
		for _, d := range dims {
			product *= d
		}
		if product == nodes {
			wrap := m.Topology.Wrap
			if len(wrap) == 0 {
				wrap = make([]bool, len(dims))
			}
			return topology.NewTorus("TofuD", dims, wrap)
		}
	}
	return topology.NewTofuD(nodes)
}

// fatTreeLeaf is the nodes-per-edge-switch of a fat-tree fabric: the
// machine's pinned leaf size when set, else the MareNostrum 4 default.
func fatTreeLeaf(m machine.Machine) int {
	if m.Topology.LeafSize > 0 {
		return m.Topology.LeafSize
	}
	return 24
}

// NewOmniPath builds the MareNostrum 4 fabric (two-level fat tree, 24 nodes
// per leaf switch).
func NewOmniPath(m machine.Machine, nodes int) (*Fabric, error) {
	topo, err := topology.NewFatTree(nodes, fatTreeLeaf(m))
	if err != nil {
		return nil, err
	}
	return &Fabric{
		Topo:             topo,
		Net:              m.Network,
		EagerThreshold:   units.Bytes(16 * units.KiB),
		MidSizeLow:       units.Bytes(1 * units.KiB),
		MidSizeHigh:      units.Bytes(128 * units.KiB),
		SlowPathFactor:   0.75,
		SlowPathProb:     0.20,
		NoiseSmall:       0.01,
		NoiseLarge:       0.25,
		DegradedRecv:     map[int]float64{},
		IntraNodeBW:      units.BytesPerSecond(24 * units.Giga),
		IntraNodeLatency: units.Seconds(0.30e-6),
		Seed:             fabricSeed(m, 0x5ce8160),
		Faults:           m.Faults,
	}, nil
}

// NewInfiniband builds an EDR Infiniband fat-tree fabric (the Dibona
// ThunderX2 cluster). EDR's hardware rendezvous pipeline has a milder
// mid-size buffer lottery than OmniPath's PSM2, and standard MPI stacks
// (OpenMPI/UCX) leave a slightly larger share of the link peak on the
// table for mid-size messages.
func NewInfiniband(m machine.Machine, nodes int) (*Fabric, error) {
	topo, err := topology.NewFatTree(nodes, fatTreeLeaf(m))
	if err != nil {
		return nil, err
	}
	return &Fabric{
		Topo:             topo,
		Net:              m.Network,
		EagerThreshold:   units.Bytes(16 * units.KiB),
		MidSizeLow:       units.Bytes(1 * units.KiB),
		MidSizeHigh:      units.Bytes(64 * units.KiB),
		SlowPathFactor:   0.70,
		SlowPathProb:     0.15,
		NoiseSmall:       0.01,
		NoiseLarge:       0.20,
		DegradedRecv:     map[int]float64{},
		IntraNodeBW:      units.BytesPerSecond(22 * units.Giga),
		IntraNodeLatency: units.Seconds(0.30e-6),
		Seed:             fabricSeed(m, 0x1b0d1ba),
		Faults:           m.Faults,
	}, nil
}

// Latency returns the end-to-end zero-byte latency between two nodes,
// including any injected per-link extra latency.
func (f *Fabric) Latency(src, dst int) units.Seconds {
	if src == dst {
		return f.IntraNodeLatency
	}
	lat := f.HopLatency(f.Topo.Hops(src, dst))
	if le, ok := f.Faults.Link(src, dst); ok {
		lat += le.ExtraLatency
	}
	return lat
}

// HopLatency returns the zero-byte latency of a route of hops links
// before any injected link fault, as Latency prices it: the intra-node
// latency at 0 hops, the only distance between a node and itself. On a
// fabric without faults, Latency(src, dst) is HopLatency of their hop
// distance, bit for bit.
func (f *Fabric) HopLatency(hops int) units.Seconds {
	if hops == 0 {
		return f.IntraNodeLatency
	}
	return f.Net.BaseLatency + units.Seconds(float64(hops))*f.Net.PerHopLatency
}

// MessageTime returns the one-way time for a message of size bytes from
// node src to node dst. trial distinguishes repetitions of the same
// transfer so noise decorrelates across iterations while remaining
// deterministic. Negative sizes panic.
func (f *Fabric) MessageTime(src, dst int, size units.Bytes, trial uint64) units.Seconds {
	var tr transfer
	f.price(&tr, src, dst, size)
	return tr.time(trial)
}

// route is what every transfer from one node to another shares, whatever
// its size: route latency, bandwidth after link faults, the receiver's
// degradation and the pair's noise key. A Sweep prices it once per pair.
type route struct {
	f *Fabric
	// self marks src == dst, whose time is lat alone: intra-node latency
	// plus transfer, with no protocol switch and no noise.
	self bool
	lat  units.Seconds // Latency(src, dst), injected link latency included
	bw   float64       // link peak after injected link degradation
	// recv is the receiver's degradation factor, 0 for a healthy receiver.
	recv    float64
	pairKey uint64 // MixN(Seed, src, dst); a transfer folds its size onto it
}

// fillRoute prices what every transfer from src to dst shares into r. It
// fills r rather than returning a route, as price fills a transfer.
func (f *Fabric) fillRoute(r *route, src, dst int) {
	if src == dst {
		*r = route{f: f, self: true}
		return
	}
	*r = route{f: f, lat: f.Latency(src, dst), bw: float64(f.Net.LinkPeak),
		pairKey: xrand.MixN(f.Seed, uint64(src), uint64(dst))}
	if le, ok := f.Faults.Link(src, dst); ok && le.BandwidthFactor > 0 {
		r.bw *= le.BandwidthFactor
	}
	if fac, ok := f.DegradedRecv[dst]; ok && fac > 0 {
		r.recv = fac
	}
}

// transfer is one (src, dst, size) message with everything that stays the
// same from trial to trial worked out once: its route, its noise amplitude
// and key, and the persistent contention jitter.
type transfer struct {
	route
	size       units.Bytes
	eps        float64 // noiseAmplitude(size)
	key        uint64  // MixN(Seed, src, dst, size); trial streams fold onto it
	persistent float64 // per-(pair, size) share of the contention jitter
}

// price works out the trial-independent part of a transfer into tr. It
// fills the caller's transfer rather than returning one because the copy
// measurably slowed MessageTime, the per-message path of every mpisim
// send. Negative sizes panic.
func (f *Fabric) price(tr *transfer, src, dst int, size units.Bytes) {
	f.fillRoute(&tr.route, src, dst)
	tr.sized(size)
	tr.drawPersistent()
}

// sized works out the part of tr that depends on its size, given its
// route, all but the persistent jitter. Negative sizes panic.
func (tr *transfer) sized(size units.Bytes) {
	if size < 0 {
		panic(fmt.Sprintf("interconnect: negative message size %v", float64(size)))
	}
	tr.size = size
	f := tr.f
	if tr.self {
		tr.lat = f.IntraNodeLatency + units.TimeFor(size, f.IntraNodeBW)
		return
	}
	// MixN folds left, so this is MixN(Seed, src, dst, size).
	tr.key = xrand.Mix64(tr.pairKey ^ uint64(size))
	tr.eps = f.noiseAmplitude(size)
}

// drawPersistent draws the transfer's persistent share of the contention
// jitter. Contention jitter grows with size and only ever slows a
// message. Most of it is *persistent* per (pair, size): a congested route
// stays congested for the whole measurement loop, so repeating the
// transfer does not average it away (this is what keeps the >1 MB region
// of Fig. 5 wide). A smaller transient component varies per trial.
func (tr *transfer) drawPersistent() {
	if tr.self {
		return
	}
	persistent := xrand.New(tr.key ^ persistentSalt)
	tr.persistent = persistent.SlowJitter(persistentShare * tr.eps)
}

// lottery reports whether transfers of the given size draw the buffer
// lottery.
func (f *Fabric) lottery(size units.Bytes) bool {
	return size >= f.MidSizeLow && size <= f.MidSizeHigh
}

// slowPath reports whether a trial whose stream is stream draws the slow
// outcome of the buffer lottery, at a size that draws it.
func (f *Fabric) slowPath(stream uint64) bool {
	return float64(stream%1000)/1000.0 < f.SlowPathProb
}

// persistentShare and transientShare split a transfer's noise amplitude
// between its persistent and its per-trial jitter factor, and
// persistentSalt and transientSalt key their streams apart.
const (
	persistentShare, transientShare = 0.7, 0.3
	persistentSalt, transientSalt   = 0xc0de, 0xfeed
)

// time returns the transfer's one-way time in the given trial.
func (tr *transfer) time(trial uint64) units.Seconds {
	if tr.self {
		return tr.lat
	}
	// MixN folds left, so this is MixN(Seed, src, dst, size, trial).
	stream := xrand.Mix64(tr.key ^ trial)
	t := tr.quietTime(tr.size, tr.f.lottery(tr.size) && tr.f.slowPath(stream))

	// SlowJitter(0) is exactly 1, and so is the persistent factor drawn at
	// amplitude 0: a noiseless transfer takes t, and draws nothing.
	if tr.eps == 0 {
		return t
	}
	transient := xrand.New(stream ^ transientSalt)
	j := tr.persistent * transient.SlowJitter(transientShare*tr.eps)
	return t * units.Seconds(j)
}

// quietTime returns the time of a trial of size bytes over the route
// without its contention jitter, on the slow outcome of the buffer lottery
// if slow.
func (r *route) quietTime(size units.Bytes, slow bool) units.Seconds {
	f, lat, bw := r.f, r.lat, r.bw

	// Buffer lottery for mid-size messages: the slow outcome pays an
	// extra internal copy (one more latency) and reduced bandwidth,
	// which is what splits Fig. 5 into two modes between 1 kB and 256 kB.
	extraLat := units.Seconds(0)
	if slow {
		bw *= f.SlowPathFactor
		extraLat = lat
	}

	t := lat + extraLat + units.TimeFor(size, units.BytesPerSecond(bw))

	// Rendezvous adds a control round trip before the payload moves.
	if size > f.EagerThreshold {
		t += 2 * lat
	}

	// Receiver-side degradation (arms0b1-11c): the sick node processes
	// every incoming message slowly — latency and transfer alike — while
	// its sender path stays healthy, exactly the asymmetry Fig. 4 shows.
	if r.recv > 0 {
		t = t / units.Seconds(r.recv)
	}
	return t
}

// noiseAmplitude interpolates the jitter amplitude between the small- and
// large-message regimes, linearly in bytes from 64 KiB to 1 MiB.
func (f *Fabric) noiseAmplitude(size units.Bytes) float64 {
	const lo, hi = 64 * 1024, 1024 * 1024
	s := float64(size)
	switch {
	case s <= lo:
		return f.NoiseSmall
	case s >= hi:
		return f.NoiseLarge
	default:
		frac := (s - lo) / (hi - lo)
		return f.NoiseSmall + frac*(f.NoiseLarge-f.NoiseSmall)
	}
}

// Bandwidth returns the effective bandwidth observed for one message,
// size / MessageTime.
func (f *Fabric) Bandwidth(src, dst int, size units.Bytes, trial uint64) units.BytesPerSecond {
	t := f.MessageTime(src, dst, size, trial)
	if t <= 0 {
		return 0
	}
	return units.BytesPerSecond(float64(size) / float64(t))
}

// SustainedBandwidth averages the effective bandwidth over n back-to-back
// messages, mirroring the paper's OSU-style loop (N iterations between two
// timestamps).
func (f *Fabric) SustainedBandwidth(src, dst int, size units.Bytes, n int) units.BytesPerSecond {
	if n <= 0 {
		panic("interconnect: need at least one iteration")
	}
	var tr transfer
	f.price(&tr, src, dst, size)
	return tr.sustained(n)
}

// sustained returns the transfer's bandwidth over trials 0..n-1.
func (tr *transfer) sustained(n int) units.BytesPerSecond {
	var total units.Seconds
	for i := 0; i < n; i++ {
		total += tr.time(uint64(i))
	}
	return units.BytesPerSecond(float64(tr.size) * float64(n) / float64(total))
}

// A Binning sorts bandwidths into bins, as a histogram of an increasing
// function of the bandwidth does.
type Binning interface {
	// Bin returns the bin of bw.
	Bin(bw units.BytesPerSecond) int
	// Settled returns the bin Bin gives every bandwidth from lo to hi, and
	// false when it cannot be sure that one bin holds them all. It must
	// also answer false within a few ulps of a bin edge, as
	// stats.GuardedEdges does: a Sweep's bounds can be an ulp off where a
	// build fuses a multiply-add in them but not in sustained.
	Settled(lo, hi units.BytesPerSecond) (bin int, ok bool)
}

// A Sweep bins what SustainedBandwidth returns over n trials, at a fixed
// list of sizes, for one route after another: after Route(src, dst),
// Bin(i) returns b.Bin(SustainedBandwidth(src, dst, sizes[i], n)). It
// draws the contention jitter only where it could move that bin, and
// works out a route's jitter-free times once per route shape.
// A Sweep is not safe for concurrent use; give each goroutine its own.
//
// For e >= 0, SlowJitter(e) lies in [1, xrand.SlowJitterMax(e)], so a
// trial's jitter factor, the persistent factor P times a transient one
// T, lies in [1, Pmax*Tmax]. Running sustained's multiplies, sequential
// sum and size*n/total at both ends of such a range bounds the bandwidth,
// because IEEE rounding is monotone in every operand; when Settled puts
// both ends in one bin, that bin is the answer. Bin tries three ranges
// in turn:
//
//  1. [1, Pmax*Tmax], which the trials' jitter-free times alone decide;
//  2. [Plo, Phi*Tmax], with P's range from xrand.SlowJitterRange;
//  3. [Plo*Tlo, Phi*Thi], with each trial's own transient range;
//
// and, when none settles, draws every factor and bins what sustained
// returns.
//
// A route's shape is what its jitter-free times read: its latency, its
// link bandwidth and its receiver's degradation. Routes of one shape share
// a row of the sweep's memo, which holds each size's jitter-free times on
// the fast and the slow outcome of the buffer lottery and, for up to
// maxMemoTrials trials, stage 1's verdict for each lottery pattern (which
// trials draw the slow outcome). Self-routes, negative or NaN amplitudes
// and more than 64 trials take SustainedBandwidth's own path.
type Sweep struct {
	b     Binning
	n     int
	sizes []sweepSize
	route route
	// slowBelow is the stream%1000 below which a trial draws the slow
	// outcome of the buffer lottery, as the fabric's slowPath decides it.
	slowBelow uint64
	// row is the memo's row for the route's shape, or spare when the
	// memo is full; nil for a self-route.
	row    []quiet
	spare  []quiet
	shapes []shape // the shape of each row, in the memo's order
	memo   []quiet // len(sizes) entries per shape
}

// sweepSize is what a Sweep works out once for each of its sizes.
type sweepSize struct {
	size units.Bytes
	// settles is false where Bin takes SustainedBandwidth's own path.
	settles bool
	lottery bool    // the size draws the buffer lottery
	pEps    float64 // the persistent and the transient jitter amplitude
	tEps    float64
	tMax    float64 // SlowJitterMax(tEps)
	jMax    float64 // SlowJitterMax(pEps) * tMax
	bytes   float64 // size*n, sustained's numerator
}

// shape is a route's latency, link bandwidth and receiver factor, in
// math.Float64bits.
type shape struct{ lat, bw, recv uint64 }

// quiet is one size's entry in a Sweep's memo row.
type quiet struct {
	fast, slow units.Seconds // a trial's jitter-free time on either lottery outcome
	// verdict[p] is stage 1's verdict for lottery pattern p: 0 until it is
	// worked out, then bin+1 if the bin is settled and -1 if it is not.
	verdict [1 << maxMemoTrials]int32
}

const (
	// maxMemoTrials is the most trials whose lottery patterns a Sweep's
	// memo keeps stage 1 verdicts for; Fig. 5 runs 4.
	maxMemoTrials = 4
	// maxShapes is the most route shapes a Sweep's memo holds; a route of
	// any other shape works its row out again each time. CTE-Arm's 192
	// nodes have 14 shapes, and each faulted link can add one.
	maxShapes = 64
)

// NewSweep returns a Sweep of the fabric's transfers at the given sizes
// over n trials, binned by b. Negative sizes and n <= 0 panic.
func (f *Fabric) NewSweep(sizes []units.Bytes, n int, b Binning) *Sweep {
	if n <= 0 {
		panic("interconnect: need at least one iteration")
	}
	s := &Sweep{b: b, n: n, sizes: make([]sweepSize, len(sizes)), route: route{f: f}}
	// slowPath compares stream%1000 against a fixed probability, so the
	// draws it sends down the slow path are the integers below a bound.
	for s.slowBelow < 1000 && f.slowPath(s.slowBelow) {
		s.slowBelow++
	}
	for i, size := range sizes {
		if size < 0 {
			panic(fmt.Sprintf("interconnect: negative message size %v", float64(size)))
		}
		eps := f.noiseAmplitude(size)
		pEps, tEps := persistentShare*eps, transientShare*eps
		tMax := xrand.SlowJitterMax(tEps)
		s.sizes[i] = sweepSize{
			// A uint64 holds the lottery pattern of up to 64 trials.
			size: size, settles: eps >= 0 && n <= 64, lottery: f.lottery(size),
			pEps: pEps, tEps: tEps, tMax: tMax, jMax: xrand.SlowJitterMax(pEps) * tMax,
			bytes: float64(size) * float64(n),
		}
	}
	return s
}

// Route points the sweep at the route from src to dst.
func (s *Sweep) Route(src, dst int) {
	r := &s.route
	r.f.fillRoute(r, src, dst)
	if r.self {
		s.row = nil
		return
	}
	key := shape{math.Float64bits(float64(r.lat)), math.Float64bits(r.bw), math.Float64bits(r.recv)}
	for k, sh := range s.shapes {
		if sh == key {
			s.row = s.memo[k*len(s.sizes) : (k+1)*len(s.sizes)]
			return
		}
	}
	if len(s.shapes) < maxShapes {
		s.shapes = append(s.shapes, key)
		s.memo = append(s.memo, make([]quiet, len(s.sizes))...)
		s.row = s.memo[len(s.memo)-len(s.sizes):]
	} else {
		if s.spare == nil {
			s.spare = make([]quiet, len(s.sizes))
		}
		s.row = s.spare
	}
	for i, sz := range s.sizes {
		s.row[i] = quiet{fast: r.quietTime(sz.size, false)}
		if sz.lottery {
			s.row[i].slow = r.quietTime(sz.size, true)
		}
	}
}

// Bin returns the bin of the bandwidth of the route's transfers at
// sizes[i] over the sweep's trials.
func (s *Sweep) Bin(i int) int {
	sz := &s.sizes[i]
	if s.row == nil || !sz.settles {
		return s.exact(sz)
	}
	q := &s.row[i]
	// MixN folds left, so this is MixN(Seed, src, dst, size), and each
	// trial's stream is Mix64(key ^ trial).
	key := xrand.Mix64(s.route.pairKey ^ uint64(sz.size))
	var pattern uint64 // bit t is set when trial t draws the slow path
	if sz.lottery {
		for t := range s.n {
			// Go compiles this form to a compare-and-set; setting the bit
			// inside the if compiles to a branch that slow trials
			// mispredict.
			var slow uint64
			if xrand.Mix64(key^uint64(t))%1000 < s.slowBelow {
				slow = 1
			}
			pattern |= slow << t
		}
	}

	// Stage 1: no draw.
	var verdict int32
	if s.n <= maxMemoTrials {
		verdict = q.verdict[pattern]
	}
	if verdict == 0 {
		verdict = -1
		if bin, ok := s.b.Settled(q.bounds(sz, pattern, s.n, 1, sz.jMax)); ok {
			verdict = int32(bin) + 1
		}
		if s.n <= maxMemoTrials {
			q.verdict[pattern] = verdict
		}
	}
	if verdict > 0 {
		return int(verdict - 1)
	}

	// Stage 2: the persistent factor's range.
	pLo, pHi := xrand.SlowJitterRange(key^persistentSalt, sz.pEps)
	if bin, ok := s.b.Settled(q.bounds(sz, pattern, s.n, pLo, pHi*sz.tMax)); ok {
		return bin
	}

	// Stage 3: every trial's transient range as well.
	var fast, slow units.Seconds
	for t := range s.n {
		tLo, tHi := xrand.SlowJitterRange(xrand.Mix64(key^uint64(t))^transientSalt, sz.tEps)
		qt := q.time(pattern, t)
		fast += qt * units.Seconds(pLo*tLo)
		slow += qt * units.Seconds(pHi*tHi)
	}
	if bin, ok := s.b.Settled(units.BytesPerSecond(sz.bytes/float64(slow)), units.BytesPerSecond(sz.bytes/float64(fast))); ok {
		return bin
	}
	return s.exact(sz)
}

// exact bins the route's bandwidth at sz as SustainedBandwidth computes
// it, every jitter factor drawn.
func (s *Sweep) exact(sz *sweepSize) int {
	tr := transfer{route: s.route}
	tr.sized(sz.size)
	tr.drawPersistent()
	return s.b.Bin(tr.sustained(s.n))
}

// time returns trial t's jitter-free time under lottery pattern pattern.
func (q *quiet) time(pattern uint64, t int) units.Seconds {
	if pattern>>t&1 != 0 {
		return q.slow
	}
	return q.fast
}

// bounds returns the least and the greatest bandwidth sustained can
// return over n trials under lottery pattern pattern when every trial's
// jitter factor lies in [jLo, jHi]: it runs sustained's operations in
// sustained's order at both ends.
func (q *quiet) bounds(sz *sweepSize, pattern uint64, n int, jLo, jHi float64) (lo, hi units.BytesPerSecond) {
	var fast, slow units.Seconds
	for t := range n {
		qt := q.time(pattern, t)
		fast += qt * units.Seconds(jLo)
		slow += qt * units.Seconds(jHi)
	}
	return units.BytesPerSecond(sz.bytes / float64(slow)), units.BytesPerSecond(sz.bytes / float64(fast))
}
