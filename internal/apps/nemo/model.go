package nemo

import (
	"fmt"
	"math"

	"clustereval/internal/apps/scaling"
	"clustereval/internal/interconnect"
	"clustereval/internal/machine"
	"clustereval/internal/perfmodel"
	"clustereval/internal/toolchain"
	"clustereval/internal/units"
)

// Config describes a NEMO BENCH configuration.
type Config struct {
	Name string
	// Horizontal grid columns and vertical levels (ORCA1: ~362x332 x 75).
	Columns float64
	Levels  float64
	Steps   int
	Runs    int // the paper averages three runs

	// Per 3D grid point per step: the branchy vertical physics / equation
	// of state (irregular, never vectorized anywhere) and the streaming
	// stencil traffic.
	IrrFlopsPerPoint float64
	IrrEfficiency    float64
	BytesPerPoint    float64

	// MemBytesPerPoint sets the memory floor (8 CTE-Arm nodes).
	MemBytesPerPoint float64
	// SerialPerStep is the per-step non-parallel work (diagnostics
	// gathering on rank 0) that bends the strong-scaling curve.
	SerialPerStep units.Seconds
	// HaloFields is the number of 2D/3D fields exchanged per step.
	HaloFields float64
}

// BenchORCA1 returns the paper's BENCH configuration at 1-degree
// resolution, calibrated to the paper's anchors: MareNostrum 4 runs
// 1.70-1.79x faster node-for-node, the input needs 8 CTE-Arm nodes, and
// CTE-Arm's scaling flattens around 128 nodes.
func BenchORCA1() Config {
	return Config{
		Name:    "BENCH-1 (ORCA1)",
		Columns: 362 * 332,
		Levels:  75,
		Steps:   1000,
		Runs:    3,

		IrrFlopsPerPoint: 5000,
		IrrEfficiency:    0.25,
		BytesPerPoint:    9400,

		MemBytesPerPoint: 8900, // ~80 GB total working set
		SerialPerStep:    units.Seconds(6e-3),
		HaloFields:       3,
	}
}

// Model predicts NEMO times on one machine.
type Model struct {
	Machine machine.Machine
	Config  Config
	exec    *perfmodel.Exec
	fabric  *interconnect.Fabric
}

// NewModel builds the model from the Table III build for the machine (GNU
// on CTE-Arm — the Fujitsu compiler fails on NEMO's Fortran — and Intel on
// MareNostrum 4).
func NewModel(m machine.Machine, cfg Config) (*Model, error) {
	build, ok := toolchain.AppBuildOn("NEMO", m)
	if !ok {
		return nil, fmt.Errorf("nemo: no build configuration for machine %q", m.Name)
	}
	exec, err := perfmodel.NewExec(m, build.Compiler, "NEMO")
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

// MinNodes returns the memory floor.
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

// ExecutionTime models the full BENCH run on `nodes` nodes (MPI-only).
func (mod *Model) ExecutionTime(nodes int) (units.Seconds, error) {
	if nodes < mod.MinNodes() {
		return 0, fmt.Errorf("nemo: %s needs >= %d nodes (memory floor)", mod.Machine.Name, mod.MinNodes())
	}
	if nodes > mod.Machine.Nodes {
		return 0, fmt.Errorf("nemo: %d nodes exceed the cluster", nodes)
	}
	cfg := mod.Config
	cores := mod.Machine.Node.Cores()
	ranks := nodes * cores

	// The 2D decomposition gives each rank a near-square patch of
	// columns; halo columns are computed redundantly, so the effective
	// work per rank grows as the patch shrinks — the strong-scaling
	// limit the paper hits around 128 CTE-Arm nodes.
	colsPerRank := cfg.Columns / float64(ranks)
	side := math.Sqrt(colsPerRank)
	haloFactor := (side + 2) * (side + 2) / colsPerRank

	pointsPerNode := mod.Points() / float64(nodes) * haloFactor
	irr := perfmodel.Work{
		Flops: pointsPerNode * cfg.IrrFlopsPerPoint / cfg.IrrEfficiency,
		Kind:  toolchain.IrregularCode,
	}
	mem := perfmodel.Work{
		Bytes: pointsPerNode * cfg.BytesPerPoint,
		Kind:  toolchain.RegularLoop,
	}
	perStep := mod.exec.Time(irr, cores) + mod.exec.Time(mem, cores)

	// Communication: the 4-neighbour halo plus a few global reductions
	// per step (time filters, solver norms).
	comm, err := perfmodel.PlacedCommCost(mod.fabric, nodes)
	if err != nil {
		return 0, err
	}
	haloBytes := units.Bytes(side * cfg.Levels * 8 * cfg.HaloFields)
	perStep += comm.HaloExchange(4, haloBytes) + 3*comm.Allreduce(ranks, 8)
	perStep += cfg.SerialPerStep

	return perStep * units.Seconds(float64(cfg.Steps)), nil
}

// CTESweep is the paper's CTE-Arm node range (8 to 192).
func CTESweep() []int { return []int{8, 12, 16, 24, 32, 48, 64, 96, 128, 160, 192} }

// MN4Sweep is the paper's MareNostrum 4 node range (1 to 24), extended
// with 27 (the equivalence point the paper quotes).
func MN4Sweep() []int { return []int{1, 2, 4, 8, 12, 16, 24, 27} }

// SweepOn returns the BENCH scalability curve of Fig. 11 on an arbitrary
// machine: the paper's node range on the paper machines, a doubling ladder
// from the memory floor elsewhere.
func SweepOn(m machine.Machine) ([]scaling.Series, error) {
	mod, err := NewModel(m, BenchORCA1())
	if err != nil {
		return nil, err
	}
	var counts []int
	switch m.Name {
	case "CTE-Arm":
		counts = CTESweep()
	case "MareNostrum 4":
		counts = MN4Sweep()
	default:
		counts = scaling.DoublingSweep(mod.MinNodes(), m.Nodes)
	}
	s := scaling.Series{Machine: m.Name}
	for _, n := range counts {
		t, err := mod.ExecutionTime(n)
		if err != nil {
			return nil, err
		}
		s.Points = append(s.Points, scaling.Point{Nodes: n, Time: t})
	}
	return []scaling.Series{s}, nil
}
