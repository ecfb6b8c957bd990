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
	hops := f.Topo.Hops(src, dst)
	lat := f.Net.BaseLatency + units.Seconds(float64(hops))*f.Net.PerHopLatency
	if le, ok := f.Faults.Link(src, dst); ok {
		lat += le.ExtraLatency
	}
	return lat
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

// Route is what every transfer from one node to another shares,
// whatever its size: route latency, bandwidth after link faults, the
// receiver's degradation and the pair's noise key. A sweep over message
// sizes prices it once per pair (Fabric.Route).
type Route struct {
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

// Route prices what every transfer from src to dst shares.
func (f *Fabric) Route(src, dst int) Route {
	var r Route
	f.route(&r, src, dst)
	return r
}

// route fills r rather than returning a Route, as price fills a transfer.
func (f *Fabric) route(r *Route, src, dst int) {
	if src == dst {
		*r = Route{f: f, self: true}
		return
	}
	*r = Route{f: f, lat: f.Latency(src, dst), bw: float64(f.Net.LinkPeak),
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
	Route
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
	f.route(&tr.Route, src, dst)
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
	persistent := xrand.New(tr.key ^ 0xc0de)
	tr.persistent = persistent.SlowJitter(persistentShare * tr.eps)
}

// lottery reports whether the transfer's size draws the buffer lottery.
func (tr *transfer) lottery() bool {
	return tr.size >= tr.f.MidSizeLow && tr.size <= tr.f.MidSizeHigh
}

// persistentShare and transientShare split a transfer's noise amplitude
// between its persistent and its per-trial jitter factor.
const persistentShare, transientShare = 0.7, 0.3

// time returns the transfer's one-way time in the given trial.
func (tr *transfer) time(trial uint64) units.Seconds {
	if tr.self {
		return tr.lat
	}
	f, size, lat, bw := tr.f, tr.size, tr.lat, tr.bw

	// Buffer lottery for mid-size messages: the slow outcome pays an
	// extra internal copy (one more latency) and reduced bandwidth,
	// which is what splits Fig. 5 into two modes between 1 kB and 256 kB.
	// MixN folds left, so this is MixN(Seed, src, dst, size, trial).
	stream := xrand.Mix64(tr.key ^ trial)
	extraLat := units.Seconds(0)
	if tr.lottery() {
		if p := float64(stream%1000) / 1000.0; p < f.SlowPathProb {
			bw *= f.SlowPathFactor
			extraLat = lat
		}
	}

	t := lat + extraLat + units.TimeFor(size, units.BytesPerSecond(bw))

	// Rendezvous adds a control round trip before the payload moves.
	if size > f.EagerThreshold {
		t += 2 * lat
	}

	// Receiver-side degradation (arms0b1-11c): the sick node processes
	// every incoming message slowly — latency and transfer alike — while
	// its sender path stays healthy, exactly the asymmetry Fig. 4 shows.
	if tr.recv > 0 {
		t = t / units.Seconds(tr.recv)
	}

	// SlowJitter(0) is exactly 1, and so is the persistent factor drawn at
	// amplitude 0: a noiseless transfer takes t, and draws nothing.
	if tr.eps == 0 {
		return t
	}
	transient := xrand.New(stream ^ 0xfeed)
	j := tr.persistent * transient.SlowJitter(transientShare*tr.eps)
	return t * units.Seconds(j)
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
	// false when it cannot be sure that one bin holds them all.
	Settled(lo, hi units.BytesPerSecond) (bin int, ok bool)
}

// SustainedBin returns b.Bin(SustainedBandwidth(src, dst, size, n)) for
// the route's src and dst, and draws the contention jitter only when it
// could move that bin.
//
// For e >= 0, SlowJitter(e) lies in [1, xrand.SlowJitterMax(e)], so every
// trial's jitter factor, the persistent factor P times a transient one T,
// lies in [1, Pmax*Tmax], and in [P, P*Tmax] once P is drawn. bounds runs
// sustained's arithmetic at both ends of that range, and IEEE rounding is
// monotone in every operand, so the bandwidth lies between the two
// results. When Settled puts both in one bin before any draw, or after the
// persistent draw alone, that bin is the answer; otherwise every transient
// factor is drawn and the bandwidth binned as SustainedBandwidth computes
// it. Negative sizes and n <= 0 panic.
func (r *Route) SustainedBin(size units.Bytes, n int, b Binning) int {
	if n <= 0 {
		panic("interconnect: need at least one iteration")
	}
	tr := transfer{Route: *r}
	tr.sized(size)
	if tr.self || !(tr.eps >= 0) {
		tr.drawPersistent()
		return b.Bin(tr.sustained(n))
	}

	// Every trial's jitter-free time, as a noiseless copy times it.
	// Outside the buffer lottery's sizes every trial takes the same time.
	// The buffer holds the paper's trial counts (4 and 16) on the stack.
	var buf [16]units.Seconds
	ts := buf[:0]
	if n > len(buf) {
		ts = make([]units.Seconds, 0, n)
	}
	quiet := tr
	quiet.eps = 0
	for i := range n {
		if i > 0 && !tr.lottery() {
			ts = append(ts, ts[0])
		} else {
			ts = append(ts, quiet.time(uint64(i)))
		}
	}

	tMax := xrand.SlowJitterMax(transientShare * tr.eps)
	if bin, ok := b.Settled(tr.bounds(ts, 1, xrand.SlowJitterMax(persistentShare*tr.eps)*tMax)); ok {
		return bin
	}
	tr.drawPersistent()
	if bin, ok := b.Settled(tr.bounds(ts, tr.persistent, tr.persistent*tMax)); ok {
		return bin
	}
	return b.Bin(tr.sustained(n))
}

// bounds returns the least and the greatest bandwidth sustained can
// return over the trials whose jitter-free times are ts when every
// trial's jitter factor lies in [jLo, jHi]: it runs sustained's
// operations in sustained's order at both ends.
func (tr *transfer) bounds(ts []units.Seconds, jLo, jHi float64) (lo, hi units.BytesPerSecond) {
	var fast, slow units.Seconds
	for _, t := range ts {
		fast += t * units.Seconds(jLo)
		slow += t * units.Seconds(jHi)
	}
	bytes := float64(tr.size) * float64(len(ts))
	return units.BytesPerSecond(bytes / float64(slow)), units.BytesPerSecond(bytes / float64(fast))
}
