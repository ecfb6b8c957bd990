// Package alya reproduces the paper's Alya experiments (Section V-A).
//
// Alya is BSC's multi-physics finite-element code; the paper runs the
// TestCaseB input (a 132-million-element sphere mesh) and dissects each
// time step into the compute-bound Assembly phase and the memory/
// communication-bound Solver phase.
//
// The package is the paper-scale phase model that regenerates Figs. 8, 9
// and 10 and the Alya row of Table IV. Assembly is an element loop priced
// as application code, which GCC leaves scalar on A64FX; the solver is a
// bandwidth-bound SpMV plus a scalar, indirection-heavy preconditioner,
// with two allreduces and an unstructured halo exchange per CG iteration.
package alya

import (
	"fmt"

	"clustereval/internal/apps/scaling"
	"clustereval/internal/interconnect"
	"clustereval/internal/machine"
	"clustereval/internal/perfmodel"
	"clustereval/internal/toolchain"
	"clustereval/internal/units"
)

// Config describes an Alya input set.
type Config struct {
	Name     string
	Elements float64
	// TimeSteps is the number of simulated steps; the first is discarded
	// when averaging, per the paper.
	TimeSteps int
	// MemPerElement (bytes) sets the memory floor: TestCaseB needs at
	// least 12 CTE-Arm nodes (32 GB each).
	MemPerElement float64

	// Assembly phase: per element per step.
	AsmFlopsPerElement float64
	AsmBytesPerElement float64
	// AsmEfficiency is the fraction of the compiler-sustained app-loop
	// rate the gather/scatter-heavy element loop achieves.
	AsmEfficiency float64

	// Solver phase: per element per CG iteration.
	SolverIters        int
	SolBytesPerElemIt  float64
	SolIrrFlopsPerElIt float64
	SolIrrEfficiency   float64

	// Partition quality (coefficient of variation of part sizes).
	PartitionSigma float64
	// Neighbours per rank in the unstructured halo.
	HaloNeighbors int
}

// TestCaseB returns the paper's input: a 132M-element sphere mesh, 20 time
// steps. The per-element constants are calibrated so that one MareNostrum 4
// time step on 12 nodes lands near 25 s with the assembly/solver split the
// paper implies (assembly ~= solver on MN4; assembly ratio 4.96x, solver
// ratio 1.79x, total 3.4x on CTE-Arm).
func TestCaseB() Config {
	return Config{
		Name:          "TestCaseB",
		Elements:      132e6,
		TimeSteps:     20,
		MemPerElement: 985,

		AsmFlopsPerElement: 50000,
		AsmBytesPerElement: 200,
		AsmEfficiency:      0.07,

		SolverIters:        500,
		SolBytesPerElemIt:  220,
		SolIrrFlopsPerElIt: 122,
		SolIrrEfficiency:   0.25,

		PartitionSigma: 0.035,
		HaloNeighbors:  24,
	}
}

// Model predicts Alya phase times on one machine.
type Model struct {
	Machine machine.Machine
	Config  Config
	exec    *perfmodel.Exec
	fabric  *interconnect.Fabric
}

// NewModel builds the model using the Table III compiler for the machine
// (GNU on CTE-Arm — the Fujitsu compiler hangs on Alya's modules — and GNU
// on MareNostrum 4).
func NewModel(m machine.Machine, cfg Config) (*Model, error) {
	build, ok := toolchain.AppBuildOn("Alya", m)
	if !ok {
		return nil, fmt.Errorf("alya: no build configuration for machine %q", m.Name)
	}
	exec, err := perfmodel.NewExec(m, build.Compiler, "Alya")
	if err != nil {
		return nil, err
	}
	fab, err := interconnect.New(m, m.Nodes)
	if err != nil {
		return nil, err
	}
	return &Model{Machine: m, Config: cfg, exec: exec, fabric: fab}, nil
}

// MinNodes returns the memory floor for this input on this machine,
// accounting for the MPI runtime's per-rank buffers (the paper's "single
// node memory limitations": 12 nodes on CTE-Arm).
func (mod *Model) MinNodes() int {
	need := mod.Config.Elements * mod.Config.MemPerElement
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

// StepTimes returns the assembly-phase, solver-phase and total time of one
// time step on `nodes` nodes (MPI-only, one rank per core). Phase times are
// those of the slowest process, i.e. they include partition imbalance, as
// the paper measures.
func (mod *Model) StepTimes(nodes int) (asm, sol, total units.Seconds, err error) {
	if nodes < mod.MinNodes() {
		return 0, 0, 0, fmt.Errorf("alya: %s needs >= %d nodes for %s (NP)",
			mod.Machine.Name, mod.MinNodes(), mod.Config.Name)
	}
	if nodes > mod.Machine.Nodes {
		return 0, 0, 0, fmt.Errorf("alya: %d nodes exceed the %d-node cluster", nodes, mod.Machine.Nodes)
	}
	cfg := mod.Config
	ranks := nodes * mod.Machine.Node.Cores()
	elemsPerNode := cfg.Elements / float64(nodes)
	imb := perfmodel.Imbalance(ranks, cfg.PartitionSigma)

	// Assembly: compute-bound element loop. The efficiency divisor models
	// the gather/scatter overhead relative to a clean app loop.
	asmWork := perfmodel.Work{
		Flops: elemsPerNode * cfg.AsmFlopsPerElement / cfg.AsmEfficiency,
		Bytes: elemsPerNode * cfg.AsmBytesPerElement,
		Kind:  toolchain.AppLoop,
	}
	asm = mod.exec.Time(asmWork, mod.Machine.Node.Cores()) * units.Seconds(imb)

	// Solver: per CG iteration, a bandwidth-bound SpMV plus an
	// indirection-heavy preconditioner that no compiler vectorizes.
	iters := float64(cfg.SolverIters)
	solMem := perfmodel.Work{
		Bytes: elemsPerNode * cfg.SolBytesPerElemIt * iters,
		Kind:  toolchain.RegularLoop,
	}
	solIrr := perfmodel.Work{
		Flops: elemsPerNode * cfg.SolIrrFlopsPerElIt * iters / cfg.SolIrrEfficiency,
		Kind:  toolchain.IrregularCode,
	}
	cores := mod.Machine.Node.Cores()
	solCompute := mod.exec.Time(solMem, cores) + mod.exec.Time(solIrr, cores)

	// Communication: two dot-product allreduces per iteration plus the
	// unstructured halo, on a topology-aware allocation.
	comm, err := perfmodel.PlacedCommCost(mod.fabric, nodes)
	if err != nil {
		return 0, 0, 0, err
	}
	elemsPerRank := cfg.Elements / float64(ranks)
	faceBytes := units.Bytes(8 * 6 * pow23(elemsPerRank) / float64(cfg.HaloNeighbors))
	perIter := 2*comm.Allreduce(ranks, 8) + comm.HaloExchange(cfg.HaloNeighbors, faceBytes)
	solComm := units.Seconds(iters) * perIter

	sol = solCompute*units.Seconds(imb) + solComm
	total = asm + sol
	return asm, sol, total, nil
}

// pow23 returns x^(2/3) without importing math for one call site.
func pow23(x float64) float64 {
	// x^(2/3) = (x^(1/3))^2 via Newton iterations on cube root.
	if x <= 0 {
		return 0
	}
	c := x
	for i := 0; i < 40; i++ {
		c = (2*c + x/(c*c)) / 3
	}
	return c * c
}

// Phase selects which time of StepTimes a sweep reports: the whole time
// step (Fig. 8), the Assembly phase (Fig. 9) or the Solver phase
// (Fig. 10).
type Phase int

const (
	TimeStep Phase = iota
	Assembly
	Solver
)

// String returns the phase's label on its figure's curves.
func (ph Phase) String() string { return [...]string{"time step", "Assembly", "Solver"}[ph] }

// CTESweep is the node range the paper explores on CTE-Arm (12 to 78).
func CTESweep() []int { return []int{12, 14, 16, 22, 32, 44, 62, 78} }

// MN4Sweep is the node range the paper explores on MareNostrum 4, extended
// with the Table IV columns.
func MN4Sweep() []int { return []int{12, 14, 16, 32, 64} }

// SweepOn returns one phase's scalability curve on an arbitrary machine:
// the paper's node range on the paper machines, a doubling ladder from
// the memory floor to the full partition elsewhere.
func SweepOn(m machine.Machine, ph Phase) ([]scaling.Series, error) {
	mod, err := NewModel(m, TestCaseB())
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
	s := scaling.Series{Machine: m.Name, Label: ph.String()}
	for _, n := range counts {
		asm, sol, total, err := mod.StepTimes(n)
		if err != nil {
			return nil, err
		}
		t := total
		switch ph {
		case Assembly:
			t = asm
		case Solver:
			t = sol
		}
		s.Points = append(s.Points, scaling.Point{Nodes: n, Time: t})
	}
	return []scaling.Series{s}, nil
}
