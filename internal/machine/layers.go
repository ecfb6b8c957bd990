package machine

import (
	"fmt"
	"sort"
	"strings"

	"clustereval/internal/units"
)

// This file defines the composable layers a Machine is assembled from.
// Each layer answers one question about the hardware:
//
//   - CoreModel (machine.go): what can one core retire per cycle?
//   - MemoryModel: how fast can a node move data, and from where?
//   - TopologyModel: how are the nodes wired together?
//   - PowerModel: what does all of the above draw from the wall?
//
// Presets (presets.go) are declarative literals of these layers; Build
// composes them into the flat Machine the performance models consume,
// and Machine.Validate checks the composition is self-consistent.

// FPPort describes one floating-point issue port of the core, at the
// granularity of SimEng's A64FX model (FLA executes the full SVE set,
// FLB only the simple/multiply subset). The port list is descriptive
// detail behind IssuePerCyc: Validate cross-checks that the number of
// FMA-capable ports matches the issue width the peak formula uses, so
// the two views of the pipeline cannot drift apart.
type FPPort struct {
	Name string // "FLA", "FLB", "P0", "P5", ...
	// FMA reports whether the port executes fused multiply-adds (and so
	// contributes to the s*i*f*o peak).
	FMA bool
	// FullVector reports whether the port executes the complete vector
	// instruction set of the widest unit; false models a reduced port
	// (A64FX FLB: no SVE divides, predicated ops, gathers).
	FullVector bool
}

// MemoryModel is the node-level memory layer: NUMA domains, capacity,
// paging policy and the tuning knobs the A64FX exposes.
type MemoryModel struct {
	Domains     []MemoryDomain
	MemoryBytes float64
	// FirstTouchNUMA reports whether the OS places pages on the domain of
	// the touching thread. True on MareNostrum 4; effectively false on
	// CTE-Arm's default paging policy, where a single shared-memory process
	// sees its pages scattered across CMGs regardless of binding — the root
	// cause of the poor OpenMP-only STREAM result of Fig. 2.
	FirstTouchNUMA bool
	// InterleaveCap is the aggregate bandwidth a single process whose pages
	// are interleaved across domains can reach (ring-bus bound on A64FX).
	// Unused when FirstTouchNUMA is true.
	InterleaveCap units.BytesPerSecond
	// InterleavedCoreBW is the streaming bandwidth one thread extracts when
	// its pages are interleaved across remote domains.
	InterleavedCoreBW units.BytesPerSecond
	// OversubSlope is the relative bandwidth loss per extra thread beyond a
	// domain's saturation point (memory-controller queue contention).
	OversubSlope float64
	// SectorCacheWays is the number of L2 ways the A64FX sector cache can
	// pin for streaming data (0 = feature absent or unused). Purely
	// descriptive today: a knob later models can price.
	SectorCacheWays int
	// HugePages reports whether the preset assumes large pages are in use
	// (the A64FX tuning guides recommend 2 MiB pages to cut TLB pressure).
	HugePages bool
}

// TopologyModel pins the interconnect's shape when the preset knows it
// exactly. A zero value means "derive a plausible shape from the node
// count", which is what the original two presets always did.
type TopologyModel struct {
	// Dims are the torus dimensions (Tofu-D: 6 entries, X*Y*Z*2*3*2 =
	// Nodes). Empty for fat-tree fabrics or derived shapes.
	Dims []int
	// Wrap marks which dimensions are rings rather than meshes; must have
	// the same length as Dims when set.
	Wrap []bool
	// LeafSize is the nodes-per-edge-switch of a fat tree (0 = default).
	LeafSize int
}

// PowerModel is the per-component power layer: everything is a draw in
// watts that EnergyBreakdown integrates over modeled time. The split
// (cores by ISA activity, memory by bandwidth utilization, NIC, node
// floor) follows the component methodology of the ThunderX2 evaluation
// (arxiv 2007.04868), which measures exactly these rails.
type PowerModel struct {
	// NodeBase is the always-on node floor: chassis, fans, VRM losses,
	// the idle draw of everything not modeled below.
	NodeBase units.Watts
	// CoreIdle is the per-core draw of an idle (clock-gated) core.
	CoreIdle units.Watts
	// CoreActive maps an ISA to the *additional* per-core draw at full
	// activity in that ISA. Wide vector units burn more than scalar code:
	// on the A64FX the SVE pipes dominate the socket budget.
	CoreActive map[ISA]units.Watts
	// MemIdle is the per-domain draw of an idle memory subsystem
	// (refresh, PHY).
	MemIdle units.Watts
	// MemActive is the per-domain additional draw at 100 % bandwidth
	// utilization; actual draw scales linearly with achieved/peak BW.
	MemActive units.Watts
	// NIC is the per-node draw of the network interface(s) when the node
	// is exchanging traffic.
	NIC units.Watts
}

// Defined reports whether the preset carries a power model at all.
func (p PowerModel) Defined() bool {
	return p.NodeBase > 0 || p.CoreIdle > 0 || len(p.CoreActive) > 0
}

// Activity describes what a node is doing during an interval, as
// fractions the power layer can price. The zero value is an idle node.
type Activity struct {
	// ActiveCores is how many cores are executing (the rest idle).
	ActiveCores int
	// ISA is the instruction mix of the active cores.
	ISA ISA
	// ComputeFrac is the fraction of the interval the active cores spend
	// retiring instructions (vs stalled on memory or communication).
	ComputeFrac float64
	// MemBWFrac is achieved/peak memory bandwidth during the interval.
	MemBWFrac float64
	// Network reports whether the NIC is exchanging traffic.
	Network bool
}

// clampFrac bounds a modeled fraction into [0, 1]: fault-degraded or
// extrapolated models must never drive a power rail negative or past
// its component's full-activity draw.
func clampFrac(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// EnergyBreakdown is per-component energy for one node over an interval.
type EnergyBreakdown struct {
	Core    units.Joules
	Memory  units.Joules
	Network units.Joules
	Base    units.Joules
}

// Total sums the components.
func (e EnergyBreakdown) Total() units.Joules {
	return e.Core + e.Memory + e.Network + e.Base
}

// Scale multiplies every component by f — e.g. by the node count to lift
// a per-node breakdown to a whole job.
func (e EnergyBreakdown) Scale(f float64) EnergyBreakdown {
	return EnergyBreakdown{
		Core:    units.Joules(float64(e.Core) * f),
		Memory:  units.Joules(float64(e.Memory) * f),
		Network: units.Joules(float64(e.Network) * f),
		Base:    units.Joules(float64(e.Base) * f),
	}
}

// NodePower returns the draw of one node under activity a.
func (m Machine) NodePower(a Activity) units.Watts {
	p := m.Power
	cores := a.ActiveCores
	if cores < 0 {
		cores = 0
	}
	if max := m.Node.Cores(); cores > max {
		cores = max
	}
	idleCores := m.Node.Cores() - cores
	w := p.NodeBase
	w += units.Watts(float64(idleCores)) * p.CoreIdle
	active := p.CoreActive[a.ISA]
	if active == 0 && a.ISA != "" {
		// Unknown mix: price it as scalar so energy is never silently zero.
		active = p.CoreActive[ISAScalar]
	}
	w += units.Watts(float64(cores)) * (p.CoreIdle + active*units.Watts(clampFrac(a.ComputeFrac)))
	domains := units.Watts(float64(len(m.Node.Domains)))
	w += domains * (p.MemIdle + p.MemActive*units.Watts(clampFrac(a.MemBWFrac)))
	if a.Network {
		w += p.NIC
	}
	return w
}

// NodeEnergy integrates NodePower over an interval, split by component.
func (m Machine) NodeEnergy(a Activity, t units.Seconds) EnergyBreakdown {
	if t <= 0 || !m.Power.Defined() {
		return EnergyBreakdown{}
	}
	p := m.Power
	cores := a.ActiveCores
	if cores < 0 {
		cores = 0
	}
	if max := m.Node.Cores(); cores > max {
		cores = max
	}
	active := p.CoreActive[a.ISA]
	if active == 0 && a.ISA != "" {
		active = p.CoreActive[ISAScalar]
	}
	corePower := units.Watts(float64(m.Node.Cores()))*p.CoreIdle +
		units.Watts(float64(cores))*active*units.Watts(clampFrac(a.ComputeFrac))
	domains := units.Watts(float64(len(m.Node.Domains)))
	memPower := domains * (p.MemIdle + p.MemActive*units.Watts(clampFrac(a.MemBWFrac)))
	var nicPower units.Watts
	if a.Network {
		nicPower = p.NIC
	}
	return EnergyBreakdown{
		Core:    units.EnergyFor(corePower, t),
		Memory:  units.EnergyFor(memPower, t),
		Network: units.EnergyFor(nicPower, t),
		Base:    units.EnergyFor(p.NodeBase, t),
	}
}

// FullLoadPower is the draw of one node with every core busy in the
// strongest ISA, memory at STREAM-sustained utilization, NIC active —
// the "LINPACK rail" the ThunderX2 study reports per node.
func (m Machine) FullLoadPower() units.Watts {
	best := m.Node.Core.BestVector(Double)
	isa := ISAScalar
	if best != nil {
		isa = best.ISA
	}
	var eff float64
	for _, d := range m.Node.Domains {
		eff += d.StreamEff
	}
	if n := len(m.Node.Domains); n > 0 {
		eff /= float64(n)
	}
	return m.NodePower(Activity{
		ActiveCores: m.Node.Cores(),
		ISA:         isa,
		ComputeFrac: 1,
		MemBWFrac:   eff,
		Network:     true,
	})
}

// validateLayers checks the layer composition beyond the flat-field
// checks Validate has always done.
func (m Machine) validateLayers() error {
	// Port list, when present, must agree with the issue width that the
	// peak formula Pv = s*i*f*o uses.
	if ports := m.Node.Core.Ports; len(ports) > 0 {
		fma := 0
		for _, p := range ports {
			if p.Name == "" {
				return fmt.Errorf("machine %s: unnamed FP port", m.Name)
			}
			if p.FMA {
				fma++
			}
		}
		maxIssue := m.Node.Core.ScalarFMAPerCycle
		for _, v := range m.Node.Core.Vector {
			if v.IssuePerCyc > maxIssue {
				maxIssue = v.IssuePerCyc
			}
		}
		if fma != maxIssue {
			return fmt.Errorf("machine %s: %d FMA-capable FP ports but issue width %d",
				m.Name, fma, maxIssue)
		}
	}
	if m.Node.SectorCacheWays < 0 {
		return fmt.Errorf("machine %s: negative sector-cache ways", m.Name)
	}
	// Topology, when pinned, must cover exactly the machine's nodes.
	if dims := m.Topology.Dims; len(dims) > 0 {
		product := 1
		for i, d := range dims {
			if d <= 0 {
				return fmt.Errorf("machine %s: topology dim %d is %d", m.Name, i, d)
			}
			product *= d
		}
		if product != m.Nodes {
			return fmt.Errorf("machine %s: topology dims cover %d nodes, machine has %d",
				m.Name, product, m.Nodes)
		}
		if w := m.Topology.Wrap; len(w) != 0 && len(w) != len(dims) {
			return fmt.Errorf("machine %s: %d wrap flags for %d topology dims",
				m.Name, len(w), len(dims))
		}
	}
	if m.Topology.LeafSize < 0 {
		return fmt.Errorf("machine %s: negative fat-tree leaf size", m.Name)
	}
	// Power rails must be non-negative; a defined model must price at
	// least scalar activity so no experiment kind yields zero energy.
	p := m.Power
	if p.NodeBase < 0 || p.CoreIdle < 0 || p.MemIdle < 0 || p.MemActive < 0 || p.NIC < 0 {
		return fmt.Errorf("machine %s: negative power rail", m.Name)
	}
	// Name every negative rail, sorted: which one a map range meets first
	// changes from run to run.
	var negative []string
	for isa, w := range p.CoreActive {
		if w < 0 {
			negative = append(negative, string(isa))
		}
	}
	if len(negative) > 0 {
		sort.Strings(negative)
		return fmt.Errorf("machine %s: negative active-core power for %s", m.Name, strings.Join(negative, ", "))
	}
	if p.Defined() {
		if _, ok := p.CoreActive[ISAScalar]; !ok {
			return fmt.Errorf("machine %s: power model misses the scalar-ISA rail", m.Name)
		}
		if p.NodeBase <= 0 {
			return fmt.Errorf("machine %s: power model has no node floor", m.Name)
		}
	}
	return nil
}
