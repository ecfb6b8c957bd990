// Package gromacs reproduces the paper's Gromacs experiments (Section V-C).
//
// Gromacs is a molecular-dynamics engine; the paper runs the UEABS
// lignocellulose-rf input (reaction-field electrostatics, 10000 steps) with
// hybrid MPI x OpenMP parallelization, 6 OpenMP threads per rank.
//
// The package is the paper-scale step model of that hybrid run: the SIMD
// nonbonded kernel, scalar bonded and bookkeeping work, memory traffic at
// the bandwidth the layout's threads reach, and domain-decomposition halo
// pulses and synchronisation rounds across nodes. It regenerates Fig. 12
// (single node), Fig. 13 (multi-node, including the unexplained 16-rank
// anomaly and the 12x8 alternative) and the Gromacs row of Table IV.
package gromacs

import (
	"fmt"

	"clustereval/internal/apps/scaling"
	"clustereval/internal/interconnect"
	"clustereval/internal/machine"
	"clustereval/internal/memsim"
	"clustereval/internal/perfmodel"
	"clustereval/internal/toolchain"
	"clustereval/internal/units"
)

// Config describes a Gromacs input.
type Config struct {
	Name  string
	Atoms float64
	Steps int
	// TimeStepFS is the MD time step in femtoseconds (sets the days/ns
	// conversion of Figs. 12-13).
	TimeStepFS float64

	// Per atom per step, efficiency already folded in:
	// NBFlops: the SIMD nonbonded kernel (reaction field).
	NBFlops float64
	// IrrFlops: bonded terms, constraints, integration, pair-list upkeep.
	IrrFlops float64
	// Bytes of DRAM traffic.
	Bytes float64

	// FixFlops is the per-rank per-step scalar bookkeeping of domain
	// decomposition (pulse setup, comm staging), constant per rank.
	FixFlops float64

	// SVEPortGain is the speedup of Gromacs' hand-written SVE nonbonded
	// kernels over the A64FX scalar core. The 2021-era port was immature:
	// only ~1.25x where AVX-512 kernels fly on Skylake.
	SVEPortGain float64

	// HaloPulses is the number of DD communication pulses per step.
	HaloPulses int
	// SyncRounds is the number of latency-bound synchronization rounds
	// per step (neighbour handshakes, force/virial reductions). These
	// dominate at scale, and TofuD's lower latency is why the paper's
	// Gromacs gap narrows from 0.32 at one node to ~0.5 at 128 nodes.
	SyncRounds int
}

// LignocelluloseRF returns the paper's UEABS Test Case B input: 3.3M atoms,
// reaction-field electrostatics, 10000 steps.
func LignocelluloseRF() Config {
	return Config{
		Name:       "lignocellulose-rf",
		Atoms:      3.27e6,
		Steps:      10000,
		TimeStepFS: 2,

		NBFlops:     900,
		IrrFlops:    385,
		Bytes:       90,
		FixFlops:    160e3,
		SVEPortGain: 1.25,
		HaloPulses:  3,
		SyncRounds:  6,
	}
}

// Layout is one run configuration: ranks x threads on a node count.
type Layout struct {
	Nodes          int
	Ranks          int
	ThreadsPerRank int
}

// Cores returns the total core count.
func (l Layout) Cores() int { return l.Ranks * l.ThreadsPerRank }

// Label renders "RxT".
func (l Layout) Label() string { return fmt.Sprintf("%dx%d", l.Ranks, l.ThreadsPerRank) }

// anomalyRanks is the rank count at which the paper observes an
// unexplained slowdown on both machines ("we currently do not have an
// explanation for this behavior"). We reproduce the observation as-is.
const anomalyRanks = 16

const anomalyFactor = 1.55

// Model predicts Gromacs times on one machine.
type Model struct {
	Machine machine.Machine
	Config  Config
	exec    *perfmodel.Exec
	fabric  *interconnect.Fabric
}

// NewModel builds the model from the Table III build (GNU 11 on CTE-Arm —
// 8.3.1-sve is too old for Gromacs and the Fujitsu compiler fails in
// cmake — Intel 2018.4 on MareNostrum 4).
func NewModel(m machine.Machine, cfg Config) (*Model, error) {
	build, ok := toolchain.AppBuildOn("Gromacs", m)
	if !ok {
		return nil, fmt.Errorf("gromacs: no build configuration for machine %q", m.Name)
	}
	exec, err := perfmodel.NewExec(m, build.Compiler, "Gromacs")
	if err != nil {
		return nil, err
	}
	fab, err := interconnect.New(m, m.Nodes)
	if err != nil {
		return nil, err
	}
	return &Model{Machine: m, Config: cfg, exec: exec, fabric: fab}, nil
}

// nbRate returns the per-core nonbonded kernel rate: the hand-written SIMD
// kernels reach the app-loop rate on Skylake; on the A64FX the immature SVE
// port gains only SVEPortGain over the scalar core.
func (mod *Model) nbRate() float64 {
	r := float64(mod.exec.CoreFlops(toolchain.AppLoop))
	if mod.Machine.Network.Kind == machine.TofuD {
		r *= mod.Config.SVEPortGain
	}
	return r
}

// StepTime models one MD step for the given layout.
func (mod *Model) StepTime(l Layout) (units.Seconds, error) {
	if l.Nodes <= 0 || l.Nodes > mod.Machine.Nodes {
		return 0, fmt.Errorf("gromacs: node count %d out of range", l.Nodes)
	}
	if l.Ranks <= 0 || l.ThreadsPerRank <= 0 {
		return 0, fmt.Errorf("gromacs: invalid layout %+v", l)
	}
	coresPerNode := mod.Machine.Node.Cores()
	if l.Cores() > l.Nodes*coresPerNode {
		return 0, fmt.Errorf("gromacs: layout %s needs %d cores, %d nodes have %d",
			l.Label(), l.Cores(), l.Nodes, l.Nodes*coresPerNode)
	}
	cfg := mod.Config
	cores := float64(l.Cores())

	// Nonbonded + irregular compute, perfectly split over all cores.
	tNB := cfg.Atoms * cfg.NBFlops / (mod.nbRate() * cores)
	irrRate := float64(mod.exec.CoreFlops(toolchain.IrregularCode))
	tIrr := cfg.Atoms * cfg.IrrFlops / (irrRate * cores)

	// Memory traffic at the bandwidth the occupied cores can actually
	// pull (close-packed thread placement).
	bw, err := mod.availableBW(l)
	if err != nil {
		return 0, err
	}
	tMem := cfg.Atoms * cfg.Bytes / (float64(bw) * float64(l.Nodes))

	// Per-rank scalar DD bookkeeping (constant per step).
	tFix := cfg.FixFlops / irrRate

	t := units.Seconds(tNB + tIrr + tMem + tFix)

	// Communication (multi-node only): DD halo pulses plus the amortized
	// global energy reduction.
	if l.Nodes > 1 {
		comm, err := perfmodel.PlacedCommCost(mod.fabric, l.Nodes)
		if err != nil {
			return 0, err
		}
		atomsPerRank := cfg.Atoms / float64(l.Ranks)
		haloBytes := units.Bytes(48 * pow23(atomsPerRank)) // ~48 B per surface atom
		t += units.Seconds(cfg.HaloPulses) * comm.PtToPt(haloBytes)
		t += units.Seconds(cfg.SyncRounds) * comm.Barrier(l.Ranks)
		t += 0.1 * comm.Allreduce(l.Ranks, 64) // every 10 steps
	}

	if l.Ranks == anomalyRanks && l.ThreadsPerRank == 6 {
		t *= anomalyFactor
	}
	return t, nil
}

// availableBW returns the per-node streaming bandwidth the layout's
// threads can extract, with threads packed into domains in order.
func (mod *Model) availableBW(l Layout) (units.BytesPerSecond, error) {
	node := mod.Machine.Node
	coresPerNode := node.Cores()
	threadsOnNode := l.Cores() / l.Nodes
	if threadsOnNode > coresPerNode {
		threadsOnNode = coresPerNode
	}
	perDomain := make([]int, len(node.Domains))
	left := threadsOnNode
	for d := range perDomain {
		take := node.Domains[d].Cores
		if take > left {
			take = left
		}
		perDomain[d] = take
		left -= take
	}
	return memsim.StreamBandwidth(node, perDomain, false, 1.0)
}

// DaysPerNS converts a step time into the figures' y-axis: days of wall
// clock per nanosecond of simulation.
func (mod *Model) DaysPerNS(t units.Seconds) float64 {
	stepsPerNS := 1e6 / mod.Config.TimeStepFS
	return float64(t) * stepsPerNS / 86400
}

func pow23(x float64) float64 {
	if x <= 0 {
		return 0
	}
	c := x
	for i := 0; i < 40; i++ {
		c = (2*c + x/(c*c)) / 3
	}
	return c * c
}

// SingleNodeLayouts is the Fig. 12 sweep: 6 OpenMP threads per rank,
// 1..8 ranks on one node.
func SingleNodeLayouts() []Layout {
	var ls []Layout
	for _, ranks := range []int{1, 2, 4, 8} {
		ls = append(ls, Layout{Nodes: 1, Ranks: ranks, ThreadsPerRank: 6})
	}
	return ls
}

// MultiNodeLayouts is the Fig. 13 sweep: full nodes with 8 ranks x 6
// threads each, over the paper's node range.
func MultiNodeLayouts() []Layout {
	var ls []Layout
	for _, nodes := range []int{1, 2, 4, 8, 16, 32, 64, 128, 144, 192} {
		ls = append(ls, Layout{Nodes: nodes, Ranks: 8 * nodes, ThreadsPerRank: 6})
	}
	return ls
}

// AlternativeLayout is the 12 ranks x 8 threads configuration the paper
// tests to bypass the 16-rank anomaly (same 96 cores on 2 nodes).
func AlternativeLayout() Layout {
	return Layout{Nodes: 2, Ranks: 12, ThreadsPerRank: 8}
}

// LayoutsFor returns the Fig. 13-style full-node layouts for an arbitrary
// machine: the paper's node range with 8x6 ranks/threads on the paper
// machines, a doubling node ladder with 8 ranks per node (threads filling
// the cores) elsewhere.
func LayoutsFor(m machine.Machine) []Layout {
	if m.Name == "CTE-Arm" || m.Name == "MareNostrum 4" {
		return MultiNodeLayouts()
	}
	cores := m.Node.Cores()
	ranksPerNode, threads := 8, cores/8
	if cores%8 != 0 || threads == 0 {
		ranksPerNode, threads = cores, 1
	}
	var ls []Layout
	for _, nodes := range scaling.DoublingSweep(1, m.Nodes) {
		ls = append(ls, Layout{Nodes: nodes, Ranks: ranksPerNode * nodes, ThreadsPerRank: threads})
	}
	return ls
}

// SweepOn returns the multi-node scalability curve of Fig. 13 (x = nodes,
// y = days/ns) on an arbitrary machine.
func SweepOn(m machine.Machine) ([]scaling.Series, error) {
	return sweep(m, LayoutsFor(m), func(l Layout) int { return l.Nodes })
}

// SingleNodeSweepOn returns the single-node curve of Fig. 12 (x = cores,
// y = days/ns) on one machine.
func SingleNodeSweepOn(m machine.Machine) ([]scaling.Series, error) {
	return sweep(m, SingleNodeLayouts(), Layout.Cores)
}

// sweep prices each layout on m and plots days/ns against x(layout).
func sweep(m machine.Machine, layouts []Layout, x func(Layout) int) ([]scaling.Series, error) {
	mod, err := NewModel(m, LignocelluloseRF())
	if err != nil {
		return nil, err
	}
	s := scaling.Series{Machine: m.Name}
	for _, l := range layouts {
		t, err := mod.StepTime(l)
		if err != nil {
			return nil, err
		}
		s.Points = append(s.Points, scaling.Point{Nodes: x(l), Time: units.Seconds(mod.DaysPerNS(t))})
	}
	return []scaling.Series{s}, nil
}
