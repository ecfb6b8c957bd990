// Package wrf reproduces the paper's WRF experiments (Section V-E).
//
// WRF is a mesoscale numerical-weather-prediction model; the paper runs an
// Iberian-peninsula domain at 4 km resolution for 56 simulated hours,
// writing one history frame per simulated hour (54 frames), with IO
// enabled and disabled.
//
// The package is the paper-scale model of that run: scalar dynamics and
// physics, bandwidth-bound memory traffic, a four-neighbour halo exchange
// with scalar buffer packing across nodes, and blocking history-frame
// writes to the shared filesystem when IO is enabled. It regenerates
// Fig. 16 and the WRF row of Table IV.
package wrf

import (
	"fmt"

	"clustereval/internal/apps/scaling"
	"clustereval/internal/interconnect"
	"clustereval/internal/machine"
	"clustereval/internal/perfmodel"
	"clustereval/internal/toolchain"
	"clustereval/internal/units"
)

// Config describes a WRF case.
type Config struct {
	Name string
	// Grid: columns x levels.
	Columns float64
	Levels  float64
	Steps   int
	Frames  int

	// Per grid point per step (efficiencies folded in):
	IrrFlops float64 // physics/dynamics loops the compilers leave scalar
	Bytes    float64 // DRAM traffic

	// Halo exchange: fields exchanged per step and the scalar pack/unpack
	// cost per halo byte. Packing is what tips the balance against the
	// A64FX at scale (2.16x at 1 node -> 2.23x at 64).
	HaloFields       float64
	PackFlopsPerByte float64

	// IO: bytes per history frame and the shared-filesystem bandwidth.
	FrameBytes       float64
	FSBandwidthBytes float64
}

// Iberia4km returns the paper's input: the Iberian peninsula at 4 km
// resolution, 56 simulated hours, 54 hourly output frames.
func Iberia4km() Config {
	return Config{
		Name:    "Iberia 4km 56h",
		Columns: 540 * 420,
		Levels:  50,
		Steps:   8400, // 24 s time step over 56 h
		Frames:  54,

		IrrFlops: 1600,
		Bytes:    424,

		HaloFields:       8,
		PackFlopsPerByte: 12,

		FrameBytes:       80e6,
		FSBandwidthBytes: 5e9,
	}
}

// Model predicts WRF times on one machine.
type Model struct {
	Machine machine.Machine
	Config  Config
	exec    *perfmodel.Exec
	fabric  *interconnect.Fabric
}

// NewModel builds the model from the Table III build (GNU on CTE-Arm,
// Intel 2017.4 on MareNostrum 4).
func NewModel(m machine.Machine, cfg Config) (*Model, error) {
	build, ok := toolchain.AppBuildOn("WRF", m)
	if !ok {
		return nil, fmt.Errorf("wrf: no build configuration for machine %q", m.Name)
	}
	exec, err := perfmodel.NewExec(m, build.Compiler, "WRF")
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

// ElapsedTime models the full 56-hour simulation on `nodes` nodes
// (MPI-only, full nodes), with or without history output.
func (mod *Model) ElapsedTime(nodes int, ioEnabled bool) (units.Seconds, error) {
	if nodes <= 0 || nodes > mod.Machine.Nodes {
		return 0, fmt.Errorf("wrf: node count %d out of [1, %d]", nodes, mod.Machine.Nodes)
	}
	cfg := mod.Config
	cores := mod.Machine.Node.Cores()
	ranks := nodes * cores
	pts := mod.Points()

	irr := perfmodel.Work{Flops: pts * cfg.IrrFlops / float64(nodes), Kind: toolchain.IrregularCode}
	mem := perfmodel.Work{Bytes: pts * cfg.Bytes / float64(nodes), Kind: toolchain.RegularLoop}
	perStep := mod.exec.Time(irr, cores) + mod.exec.Time(mem, cores)

	if nodes > 1 {
		comm, err := perfmodel.PlacedCommCost(mod.fabric, nodes)
		if err != nil {
			return 0, err
		}
		colsPerRank := cfg.Columns / float64(ranks)
		side := sqrt(colsPerRank)
		sideBytes := units.Bytes(side * cfg.Levels * 8 * cfg.HaloFields)
		perStep += comm.HaloExchange(4, sideBytes)
		// Scalar pack/unpack of the four halo buffers.
		packBytes := 4 * float64(sideBytes)
		irrRate := float64(mod.exec.CoreFlops(toolchain.IrregularCode))
		perStep += units.Seconds(packBytes * cfg.PackFlopsPerByte / irrRate)
	}

	total := perStep * units.Seconds(float64(cfg.Steps))
	if ioEnabled {
		// History frames: gathered and written to the shared filesystem,
		// blocking the computation (no IO quilting in the paper's setup).
		frameTime := cfg.FrameBytes / cfg.FSBandwidthBytes
		total += units.Seconds(float64(cfg.Frames) * frameTime)
	}
	return total, nil
}

// sqrt is Newton's method, avoiding a math import for one call.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	g := x
	for i := 0; i < 40; i++ {
		g = (g + x/g) / 2
	}
	return g
}

// NodeSweep is the paper's Fig. 16 node range.
func NodeSweep() []int { return []int{1, 2, 4, 8, 16, 32, 64} }

// SweepOn returns the Iberia-4km curves of Fig. 16 (IO enabled and
// disabled) on an arbitrary machine: the paper's node range on the paper
// machines, a doubling ladder elsewhere.
func SweepOn(m machine.Machine) ([]scaling.Series, error) {
	mod, err := NewModel(m, Iberia4km())
	if err != nil {
		return nil, err
	}
	counts := NodeSweep()
	if m.Name != "CTE-Arm" && m.Name != "MareNostrum 4" {
		counts = scaling.DoublingSweep(1, m.Nodes)
	}
	var out []scaling.Series
	for _, ioOn := range []bool{true, false} {
		label := "IO disabled"
		if ioOn {
			label = "IO enabled"
		}
		s := scaling.Series{Machine: m.Name, Label: label}
		for _, n := range counts {
			t, err := mod.ElapsedTime(n, ioOn)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, scaling.Point{Nodes: n, Time: t})
		}
		out = append(out, s)
	}
	return out, nil
}
