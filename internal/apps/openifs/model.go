// Package openifs reproduces the paper's OpenIFS experiments (Section V-D).
//
// OpenIFS is ECMWF's spectral numerical-weather-prediction system. The
// paper runs the TL255L91 input on single nodes (Fig. 14) and TC0511L91
// across nodes (Fig. 15).
//
// The package is the paper-scale model of a forecast day: grid-point
// physics, dynamics and spectral-transform compute, memory traffic at the
// bandwidth the occupied cores reach, and the pipelined all-to-all
// transpositions between grid-point and spectral space across nodes. It
// regenerates Figs. 14 and 15 and the OpenIFS row of Table IV.
package openifs

import (
	"fmt"

	"clustereval/internal/apps/scaling"
	"clustereval/internal/interconnect"
	"clustereval/internal/machine"
	"clustereval/internal/memsim"
	"clustereval/internal/omp"
	"clustereval/internal/perfmodel"
	"clustereval/internal/toolchain"
	"clustereval/internal/units"
)

// Config describes an OpenIFS input set.
type Config struct {
	Name        string
	Columns     float64 // grid columns
	Levels      float64
	StepsPerDay float64

	// Per grid point per simulated day (efficiencies folded in):
	PhysFlops float64 // grid-point physics: branchy, never vectorized
	DynFlops  float64 // dynamics: vectorizable app loops
	SpecFlops float64 // spectral transforms via BLAS (internal vs MKL)
	Bytes     float64 // DRAM traffic

	// Transpositions between grid-point and spectral space: per step,
	// TranspositionsPerStep all-to-alls of SpectralBytes total volume.
	TranspositionsPerStep float64
	SpectralBytes         float64
	// PipeFactor scales the rank-count latency term of a pipelined
	// all-to-all (messages overlap ~8 deep).
	PipeFactor float64

	// MemBytesPerPoint sets the memory floor.
	MemBytesPerPoint float64
}

// TL255L91 is the single-node input of Fig. 14.
func TL255L91() Config {
	return Config{
		Name:        "TL255L91",
		Columns:     348528,
		Levels:      91,
		StepsPerDay: 2700,

		PhysFlops: 1.37e6,
		DynFlops:  2.50e6,
		SpecFlops: 3.90e6,
		Bytes:     300e3,

		TranspositionsPerStep: 2,
		SpectralBytes:         24e6,
		PipeFactor:            0.122,
		MemBytesPerPoint:      300,
	}
}

// TC0511L91 is the multi-node input of Fig. 15: ~4.5x the columns of
// TL255 at half the time step, with a dynamics-heavier mix (higher
// resolution shifts work into the dynamical core).
func TC0511L91() Config {
	return Config{
		Name:        "TC0511L91",
		Columns:     1.57e6,
		Levels:      91,
		StepsPerDay: 5400,

		PhysFlops: 1.52e6,
		DynFlops:  3.10e6,
		SpecFlops: 2.20e6,
		Bytes:     115e3,

		TranspositionsPerStep: 2,
		SpectralBytes:         190e6,
		PipeFactor:            0.06,
		// The memory floor the paper reports: a minimum of 32 A64FX nodes.
		MemBytesPerPoint: 2500,
	}
}

// Model predicts OpenIFS times on one machine.
type Model struct {
	Machine machine.Machine
	Config  Config
	exec    *perfmodel.Exec
	fabric  *interconnect.Fabric
}

// NewModel builds the model from the Table III build (GNU on CTE-Arm with
// internal BLAS/LAPACK — the Fujitsu build compiled but failed at runtime —
// Intel + MKL on MareNostrum 4).
func NewModel(m machine.Machine, cfg Config) (*Model, error) {
	build, ok := toolchain.AppBuildOn("OpenIFS", m)
	if !ok {
		return nil, fmt.Errorf("openifs: no build configuration for machine %q", m.Name)
	}
	exec, err := perfmodel.NewExec(m, build.Compiler, "OpenIFS")
	if err != nil {
		return nil, err
	}
	fab, err := interconnect.New(m, m.Nodes)
	if err != nil {
		return nil, err
	}
	return &Model{Machine: m, Config: cfg, exec: exec, fabric: fab}, nil
}

// Points returns the 3D grid size.
func (mod *Model) Points() float64 { return mod.Config.Columns * mod.Config.Levels }

// MinNodes returns the memory floor (32 CTE-Arm nodes for TC0511L91).
func (mod *Model) MinNodes() int {
	need := mod.Points() * mod.Config.MemBytesPerPoint
	perNode := mod.Machine.UsableMemory(mod.Machine.Node.Cores())
	if perNode <= 0 {
		return mod.Machine.Nodes + 1
	}
	n := 1
	for float64(n)*perNode < need {
		n++
	}
	return n
}

// DayTime models the time to simulate one forecast day using `ranks` MPI
// ranks over `nodes` nodes (MPI-only, as the paper runs it).
func (mod *Model) DayTime(nodes, ranks int) (units.Seconds, error) {
	if nodes < mod.MinNodes() {
		return 0, fmt.Errorf("openifs: %s needs >= %d nodes for %s",
			mod.Machine.Name, mod.MinNodes(), mod.Config.Name)
	}
	if nodes > mod.Machine.Nodes {
		return 0, fmt.Errorf("openifs: %d nodes exceed the cluster", nodes)
	}
	coresPerNode := mod.Machine.Node.Cores()
	if ranks <= 0 || ranks > nodes*coresPerNode {
		return 0, fmt.Errorf("openifs: %d ranks do not fit %d nodes", ranks, nodes)
	}
	cfg := mod.Config
	pts := mod.Points()
	ranksPerNode := (ranks + nodes - 1) / nodes

	phys := perfmodel.Work{Flops: pts * cfg.PhysFlops / float64(nodes), Kind: toolchain.IrregularCode}
	dyn := perfmodel.Work{Flops: pts * cfg.DynFlops / float64(nodes), Kind: toolchain.AppLoop}
	spec := perfmodel.Work{Flops: pts * cfg.SpecFlops / float64(nodes), Kind: toolchain.CompactLoop}

	t := mod.exec.Time(phys, ranksPerNode) +
		mod.exec.Time(dyn, ranksPerNode) +
		mod.exec.Time(spec, ranksPerNode)

	// Memory traffic at the bandwidth the occupied cores can actually
	// extract (ranks bound spread across domains): an under-populated
	// node is not limited to its proportional bandwidth share, which is
	// why the paper's single-node gap narrows from 3.72x at 8 ranks to
	// 3.28x at 48 (MareNostrum 4 saturates its DDR4 as ranks fill up).
	bw, err := mod.availableBW(ranksPerNode)
	if err != nil {
		return 0, err
	}
	t += units.TimeFor(units.Bytes(pts*cfg.Bytes/float64(nodes)), bw)

	if nodes > 1 {
		comm, err := perfmodel.PlacedCommCost(mod.fabric, nodes)
		if err != nil {
			return 0, err
		}
		// Each transposition: a pipelined rank-level all-to-all. The
		// latency term grows with the rank count; the volume term moves
		// the spectral state once per transposition.
		perTransposition := units.Seconds(cfg.PipeFactor*float64(ranks))*comm.Alpha +
			units.TimeFor(units.Bytes(cfg.SpectralBytes/float64(nodes)), mod.Machine.Network.LinkPeak)
		t += units.Seconds(cfg.TranspositionsPerStep*cfg.StepsPerDay) * perTransposition
	}
	return t, nil
}

// availableBW returns the per-node streaming bandwidth `ranksPerNode`
// ranks can extract with spread binding.
func (mod *Model) availableBW(ranksPerNode int) (units.BytesPerSecond, error) {
	node := mod.Machine.Node
	if ranksPerNode > node.Cores() {
		ranksPerNode = node.Cores()
	}
	team, err := omp.NewTeam(node, ranksPerNode, omp.Spread)
	if err != nil {
		return 0, err
	}
	return memsim.TeamBandwidth(team, false, 1.0)
}

// SingleNodeSweepOn returns the TL255L91 curve of Fig. 14 on one node of
// m (x = MPI ranks, y = seconds per simulated day).
func SingleNodeSweepOn(m machine.Machine) ([]scaling.Series, error) {
	mod, err := NewModel(m, TL255L91())
	if err != nil {
		return nil, err
	}
	s := scaling.Series{Machine: m.Name}
	for _, r := range []int{8, 12, 16, 24, 32, 48} {
		t, err := mod.DayTime(1, r)
		if err != nil {
			return nil, err
		}
		s.Points = append(s.Points, scaling.Point{Nodes: r, Time: t})
	}
	return []scaling.Series{s}, nil
}

// SweepOn returns the TC0511L91 multi-node curve of Fig. 15 on an
// arbitrary machine: the paper's node range on the paper machines, a
// doubling ladder from the memory floor elsewhere (full nodes of MPI ranks
// either way).
func SweepOn(m machine.Machine) ([]scaling.Series, error) {
	mod, err := NewModel(m, TC0511L91())
	if err != nil {
		return nil, err
	}
	counts := []int{32, 48, 64, 96, 128}
	if m.Name != "CTE-Arm" && m.Name != "MareNostrum 4" {
		counts = scaling.DoublingSweep(mod.MinNodes(), m.Nodes)
	}
	s := scaling.Series{Machine: m.Name}
	for _, n := range counts {
		t, err := mod.DayTime(n, n*m.Node.Cores())
		if err != nil {
			return nil, err
		}
		s.Points = append(s.Points, scaling.Point{Nodes: n, Time: t})
	}
	return []scaling.Series{s}, nil
}
