// Package machine describes the hardware of the two clusters the paper
// evaluates: CTE-Arm (Fujitsu A64FX) and MareNostrum 4 (Intel Skylake).
// The descriptors are the single source of truth for every performance
// model in the simulator; each field of Table I in the paper maps onto a
// field here, and theoretical peaks are *derived*, never hard-coded, so a
// mismatch between the model and the paper's table is caught by tests.
package machine

import (
	"fmt"

	"clustereval/internal/faultsim"
	"clustereval/internal/units"
)

// ISA identifies a SIMD instruction-set extension.
type ISA string

// SIMD extensions appearing in Table I.
const (
	ISAScalar ISA = "scalar"
	ISANEON   ISA = "NEON"   // 128-bit Armv8 Advanced SIMD
	ISASVE    ISA = "SVE"    // Scalable Vector Extension (512-bit on A64FX)
	ISAAVX512 ISA = "AVX512" // 512-bit Intel AVX-512
)

// Precision identifies a floating-point element width.
type Precision int

// Floating-point precisions exercised by the FPU µKernel.
const (
	Half Precision = iota // 16-bit (A64FX supports it in SVE; Skylake does not)
	Single
	Double
)

// Bits returns the element width in bits.
func (p Precision) Bits() int {
	switch p {
	case Half:
		return 16
	case Single:
		return 32
	default:
		return 64
	}
}

func (p Precision) String() string {
	switch p {
	case Half:
		return "half"
	case Single:
		return "single"
	default:
		return "double"
	}
}

// VectorUnit describes one SIMD extension of a core.
type VectorUnit struct {
	ISA          ISA
	WidthBits    int  // architectural vector length
	IssuePerCyc  int  // FMA instructions issued per cycle (pipes)
	FMA          bool // fused multiply-add available (2 flops/element/op)
	SupportsHalf bool // can the unit do FP16 arithmetic at full rate?
}

// Lanes returns how many elements of precision p one vector holds.
func (v VectorUnit) Lanes(p Precision) int {
	if p == Half && !v.SupportsHalf {
		return 0
	}
	return v.WidthBits / p.Bits()
}

// Cache describes one level of the data-cache hierarchy.
type Cache struct {
	Level     int
	SizeBytes float64
	Shared    bool // shared across the cores of a NUMA domain
}

// CoreModel is the per-core micro-architecture layer.
type CoreModel struct {
	FrequencyHz float64
	// Vector units available, strongest first. The FPU µKernel picks the
	// widest; application code uses whatever the compiler managed to emit.
	Vector []VectorUnit
	// ScalarFMAPerCycle is the number of scalar FMA instructions the core
	// can retire per cycle (2 FP pipes on both A64FX and Skylake).
	ScalarFMAPerCycle int
	// OoOFactor captures the relative strength of the out-of-order engine
	// on irregular scalar code, normalized to Skylake = 1.0. The paper's
	// conclusion attributes the 2-4x application slowdown to "the weaker
	// out-of-order capabilities of the scalar core of the A64FX".
	OoOFactor float64
	Caches    []Cache
	// Ports, when present, names the FP issue ports behind IssuePerCyc
	// (SimEng's A64FX model: FLA full-SVE, FLB reduced). Validate checks
	// the port list agrees with the issue width the peak formula uses.
	Ports []FPPort
}

// Core is the historical name of the per-core layer; the two are the
// same type.
type Core = CoreModel

// ScalarPeak returns the peak scalar FMA throughput of one core.
func (c Core) ScalarPeak() units.FlopsPerSecond {
	return units.FlopsPerSecond(float64(c.ScalarFMAPerCycle) * c.FrequencyHz * 2)
}

// VectorPeak returns the theoretical peak Pv = s*i*f*o of the named unit for
// precision p, following the paper's formula (Section III-A). A zero return
// means the unit cannot process that precision.
func (c Core) VectorPeak(isa ISA, p Precision) units.FlopsPerSecond {
	for _, v := range c.Vector {
		if v.ISA != isa {
			continue
		}
		s := v.Lanes(p)
		if s == 0 {
			return 0
		}
		o := 1.0
		if v.FMA {
			o = 2.0
		}
		return units.FlopsPerSecond(float64(s) * float64(v.IssuePerCyc) * c.FrequencyHz * o)
	}
	return 0
}

// BestVector returns the widest vector unit supporting precision p, or nil.
func (c Core) BestVector(p Precision) *VectorUnit {
	var best *VectorUnit
	var bestPeak units.FlopsPerSecond
	for i := range c.Vector {
		v := &c.Vector[i]
		if v.Lanes(p) == 0 {
			continue
		}
		if pk := c.VectorPeak(v.ISA, p); pk > bestPeak {
			best, bestPeak = v, pk
		}
	}
	return best
}

// DoublePeak returns the per-core double-precision peak (Table I row
// "DP Peak / core").
func (c Core) DoublePeak() units.FlopsPerSecond {
	best := c.ScalarPeak()
	for _, v := range c.Vector {
		if pk := c.VectorPeak(v.ISA, Double); pk > best {
			best = pk
		}
	}
	return best
}

// MemoryDomain is a NUMA domain: a CMG on the A64FX, a socket on Skylake.
type MemoryDomain struct {
	Name       string
	Cores      int
	Channels   int
	PeakBW     units.BytesPerSecond // aggregate peak of this domain
	Technology string               // "HBM2", "DDR4-2666"
	StreamEff  float64              // fraction of peak STREAM sustains from local threads
	SingleCore units.BytesPerSecond // streaming bandwidth one core extracts from local memory
}

// Node describes one compute node: socket counts, the core layer, and
// the embedded memory layer (whose fields — Domains, MemoryBytes,
// FirstTouchNUMA, InterleaveCap, InterleavedCoreBW, OversubSlope and
// the sector-cache/hugepage knobs — promote to Node, so consumers read
// n.Domains exactly as before the layering).
type Node struct {
	Sockets        int
	CoresPerSocket int
	Core           CoreModel
	MemoryModel
	// OSNoise is the relative magnitude of system-noise jitter per run.
	OSNoise float64
}

// Cores returns the total core count of the node.
func (n Node) Cores() int { return n.Sockets * n.CoresPerSocket }

// DoublePeak returns the node-level DP peak (Table I row "DP Peak / node").
func (n Node) DoublePeak() units.FlopsPerSecond {
	return units.FlopsPerSecond(float64(n.Cores()) * float64(n.Core.DoublePeak()))
}

// MemoryPeak returns the aggregate node memory bandwidth (Table I row
// "Peak memory bandwidth").
func (n Node) MemoryPeak() units.BytesPerSecond {
	var bw units.BytesPerSecond
	for _, d := range n.Domains {
		bw += d.PeakBW
	}
	return bw
}

// DomainOf returns the index of the memory domain owning core c.
func (n Node) DomainOf(core int) int {
	if core < 0 || core >= n.Cores() {
		panic(fmt.Sprintf("machine: core %d out of range [0,%d)", core, n.Cores()))
	}
	acc := 0
	for i, d := range n.Domains {
		acc += d.Cores
		if core < acc {
			return i
		}
	}
	return len(n.Domains) - 1
}

// InterconnectKind names a cluster network technology.
type InterconnectKind string

// Interconnect technologies of the registered presets.
const (
	TofuD      InterconnectKind = "TofuD"
	OmniPath   InterconnectKind = "Intel OmniPath"
	Infiniband InterconnectKind = "Infiniband" // EDR fat tree (Dibona/ThunderX2)
)

// Network describes the cluster interconnect at the level Table I reports.
type Network struct {
	Kind InterconnectKind
	// LinkPeak is the peak point-to-point bandwidth per direction.
	LinkPeak units.BytesPerSecond
	// BaseLatency is the zero-hop (same switch / one hop) end-to-end latency.
	BaseLatency units.Seconds
	// PerHopLatency is the additional latency per traversed link.
	PerHopLatency units.Seconds
	// InjectionLinks is the number of independent network interfaces per
	// node (TofuD exposes 6 TNIs; OmniPath nodes have a single port).
	// Aggregate injection bandwidth is InjectionLinks * LinkPeak.
	InjectionLinks int
	// Seed, when nonzero, overrides the fabric's built-in deterministic
	// noise seed. It is how callers (CLI -seed flags, service job specs)
	// request an alternative — but still fully reproducible — realisation
	// of the network's contention and buffer-lottery noise.
	Seed uint64
}

// InjectionBW returns the aggregate per-node injection bandwidth.
func (n Network) InjectionBW() units.BytesPerSecond {
	return units.BytesPerSecond(float64(n.InjectionLinks) * float64(n.LinkPeak))
}

// Machine is a full cluster description.
type Machine struct {
	Name       string
	Integrator string
	CPUName    string
	Arch       string
	SIMD       []ISA
	Node       Node
	Nodes      int
	Network    Network
	// Topology pins the exact interconnect shape when the preset knows
	// it (Fugaku's 6-D Tofu-D); the zero value derives a shape from the
	// node count as before.
	Topology TopologyModel
	// Power is the per-component power layer; the zero value models no
	// energy (every energy figure reports zero joules).
	Power PowerModel
	// Faults, when non-nil, is a compiled fault-injection scenario
	// (internal/faultsim) that every fabric and simulated MPI world built
	// from this descriptor inherits — the same plumbing style as
	// Network.Seed. nil means the pristine cluster of the paper.
	Faults *faultsim.Model
	// MPIBufferPerRank is the per-rank memory the MPI runtime claims
	// (eager buffers, registration caches). The Fujitsu MPI is notoriously
	// hungry here; with 48 ranks per node it eats a large slice of the
	// A64FX's 32 GB, which is what drives the paper's "single node memory
	// limitations" (Alya, OpenIFS and NEMO cannot run on few nodes).
	MPIBufferPerRank float64
}

// UsableMemory returns the node memory left for the application when
// running ranksPerNode MPI ranks.
func (m Machine) UsableMemory(ranksPerNode int) float64 {
	u := m.Node.MemoryBytes - float64(ranksPerNode)*m.MPIBufferPerRank
	if u < 0 {
		return 0
	}
	return u
}

// ClusterPeak returns the aggregate DP peak of n nodes.
func (m Machine) ClusterPeak(n int) units.FlopsPerSecond {
	return units.FlopsPerSecond(float64(n) * float64(m.Node.DoublePeak()))
}

// Validate checks internal consistency of the descriptor.
func (m Machine) Validate() error {
	if m.Nodes <= 0 {
		return fmt.Errorf("machine %s: non-positive node count %d", m.Name, m.Nodes)
	}
	if m.Node.Cores() <= 0 {
		return fmt.Errorf("machine %s: node has no cores", m.Name)
	}
	domCores := 0
	for _, d := range m.Node.Domains {
		if d.Cores <= 0 {
			return fmt.Errorf("machine %s: domain %s has no cores", m.Name, d.Name)
		}
		if d.PeakBW <= 0 {
			return fmt.Errorf("machine %s: domain %s has no bandwidth", m.Name, d.Name)
		}
		domCores += d.Cores
	}
	if domCores != m.Node.Cores() {
		return fmt.Errorf("machine %s: domains cover %d cores, node has %d",
			m.Name, domCores, m.Node.Cores())
	}
	if m.Node.Core.FrequencyHz <= 0 {
		return fmt.Errorf("machine %s: non-positive frequency", m.Name)
	}
	if m.Network.LinkPeak <= 0 {
		return fmt.Errorf("machine %s: non-positive link bandwidth", m.Name)
	}
	return m.validateLayers()
}
