package figures

import (
	"fmt"
	"strings"

	"clustereval/internal/apps/alya"
	"clustereval/internal/apps/gromacs"
	"clustereval/internal/apps/nemo"
	"clustereval/internal/apps/openifs"
	"clustereval/internal/apps/wrf"
	"clustereval/internal/hpcg"
	"clustereval/internal/hpl"
	"clustereval/internal/machine"
	"clustereval/internal/report"
	"clustereval/internal/toolchain"
	"clustereval/internal/units"
)

// TableI renders the hardware configuration table.
func (p Pair) TableI() *report.Table {
	t := &report.Table{
		Title:   "Table I: hardware configuration",
		Headers: []string{"", p.Arm.Name, p.Ref.Name},
	}
	simd := func(m machine.Machine) string {
		parts := make([]string, len(m.SIMD))
		for i, s := range m.SIMD {
			parts[i] = string(s)
		}
		return strings.Join(parts, ", ")
	}
	rows := []struct {
		label    string
		arm, ref string
	}{
		{"System integrator", p.Arm.Integrator, p.Ref.Integrator},
		{"Core architecture", p.Arm.Arch, p.Ref.Arch},
		{"SIMD extensions", simd(p.Arm), simd(p.Ref)},
		{"CPU name", p.Arm.CPUName, p.Ref.CPUName},
		{"Frequency [GHz]", fmt.Sprintf("%.2f", p.Arm.Node.Core.FrequencyHz/1e9),
			fmt.Sprintf("%.2f", p.Ref.Node.Core.FrequencyHz/1e9)},
		{"Sockets / node", fmt.Sprint(p.Arm.Node.Sockets), fmt.Sprint(p.Ref.Node.Sockets)},
		{"Cores / node", fmt.Sprint(p.Arm.Node.Cores()), fmt.Sprint(p.Ref.Node.Cores())},
		{"DP peak / core [GFlop/s]", fmt.Sprintf("%.2f", p.Arm.Node.Core.DoublePeak().Giga()),
			fmt.Sprintf("%.2f", p.Ref.Node.Core.DoublePeak().Giga())},
		{"DP peak / node [GFlop/s]", fmt.Sprintf("%.2f", p.Arm.Node.DoublePeak().Giga()),
			fmt.Sprintf("%.2f", p.Ref.Node.DoublePeak().Giga())},
		{"Memory / node [GB]", fmt.Sprintf("%.0f", p.Arm.Node.MemoryBytes/1e9),
			fmt.Sprintf("%.0f", p.Ref.Node.MemoryBytes/1e9)},
		{"Memory technology", p.Arm.Node.Domains[0].Technology, p.Ref.Node.Domains[0].Technology},
		{"Peak memory BW [GB/s]", fmt.Sprintf("%.0f", p.Arm.Node.MemoryPeak().GB()),
			fmt.Sprintf("%.0f", p.Ref.Node.MemoryPeak().GB())},
		{"Number of nodes", fmt.Sprint(p.Arm.Nodes), fmt.Sprint(p.Ref.Nodes)},
		{"Interconnect", string(p.Arm.Network.Kind), string(p.Ref.Network.Kind)},
		{"Peak network BW [GB/s]", fmt.Sprintf("%.2f", p.Arm.Network.LinkPeak.GB()),
			fmt.Sprintf("%.2f", p.Ref.Network.LinkPeak.GB())},
	}
	for _, r := range rows {
		t.AddRow(r.label, r.arm, r.ref)
	}
	return t
}

// TableII renders the STREAM build configurations.
func (p Pair) TableII() *report.Table {
	t := &report.Table{
		Title:   "Table II: build configurations for STREAM",
		Headers: []string{"Build", "Compiler", "Flags"},
	}
	add := func(name string, c toolchain.Compiler) {
		t.AddRow(name, c.String(), strings.Join(c.Flags, " "))
	}
	add("CTE-Arm OpenMP", toolchain.StreamOpenMPArm())
	add("CTE-Arm MPI+OpenMP", toolchain.StreamHybridArm())
	add("MareNostrum 4 OpenMP", toolchain.StreamMN4())
	add("MareNostrum 4 MPI+OpenMP", toolchain.StreamMN4())
	return t
}

// TableIII renders the application build configurations.
func (p Pair) TableIII() *report.Table {
	t := &report.Table{
		Title:   "Table III: build configurations for all HPC applications",
		Headers: []string{"Application", "Machine", "Compiler", "MPI", "Dependencies"},
	}
	for _, b := range toolchain.AppBuilds() {
		t.AddRow(b.App, b.Machine, b.Compiler.String(), b.MPIFlavor,
			strings.Join(b.Dependencies, " "))
	}
	return t
}

// Cell is one Table IV entry.
type Cell struct {
	Nodes   int
	Speedup float64
	NP, NA  bool
}

// String renders the cell the way the paper prints it.
func (c Cell) String() string {
	switch {
	case c.NP:
		return "NP"
	case c.NA:
		return "N/A"
	default:
		return fmt.Sprintf("%.2f", c.Speedup)
	}
}

// Row is one Table IV application row.
type Row struct {
	App   string
	Cells []Cell
}

// TableIVNodes are the columns of Table IV.
func TableIVNodes() []int { return []int{1, 16, 32, 64, 128, 192} }

// TableIV computes the speedup summary of the paper's conclusions: the
// performance of CTE-Arm relative to MareNostrum 4 at equal node counts.
func (p Pair) TableIV() ([]Row, error) {
	nodes := TableIVNodes()
	var rows []Row

	// LINPACK: measured at every column.
	linpack := Row{App: "LINPACK"}
	for _, n := range nodes {
		a, err := hpl.Predict(p.Arm, n)
		if err != nil {
			return nil, fmt.Errorf("figures: linpack: %w", err)
		}
		m, err := hpl.Predict(p.Ref, n)
		if err != nil {
			return nil, fmt.Errorf("figures: linpack: %w", err)
		}
		linpack.Cells = append(linpack.Cells, Cell{Nodes: n, Speedup: float64(a.Perf) / float64(m.Perf)})
	}
	rows = append(rows, linpack)

	// HPCG: the paper measured 1 and 192 nodes only.
	hpcgRow := Row{App: "HPCG"}
	for _, n := range nodes {
		if n != 1 && n != 192 {
			hpcgRow.Cells = append(hpcgRow.Cells, Cell{Nodes: n, NA: true})
			continue
		}
		a, err := hpcg.Predict(p.Arm, hpcg.Optimized, n)
		if err != nil {
			return nil, fmt.Errorf("figures: hpcg: %w", err)
		}
		m, err := hpcg.Predict(p.Ref, hpcg.Optimized, n)
		if err != nil {
			return nil, fmt.Errorf("figures: hpcg: %w", err)
		}
		hpcgRow.Cells = append(hpcgRow.Cells, Cell{Nodes: n, Speedup: float64(a.Perf) / float64(m.Perf)})
	}
	rows = append(rows, hpcgRow)

	for _, appRow := range []func([]int) (Row, error){p.alyaRow, p.openifsRow, p.gromacsRow, p.wrfRow, p.nemoRow} {
		row, err := appRow(nodes)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// modelPair builds one application model per machine of the pair.
func modelPair[C, M any](p Pair, newModel func(machine.Machine, C) (M, error), cfg C) (arm, ref M, err error) {
	if arm, err = newModel(p.Arm, cfg); err != nil {
		return arm, ref, err
	}
	ref, err = newModel(p.Ref, cfg)
	return arm, ref, err
}

// speedupRow builds one application row of Table IV. blank marks the
// cells the paper leaves empty: NP below a memory floor, which wins over
// N/A where the paper has no measurement. Every other cell is
// MareNostrum 4's time over CTE-Arm's, each priced on that machine's
// model.
func speedupRow[M any](app string, nodes []int, arm, ref M,
	blank func(n int) (np, na bool), price func(mod M, n int) (units.Seconds, error)) (Row, error) {
	row := Row{App: app}
	for _, n := range nodes {
		c := Cell{Nodes: n}
		np, na := blank(n)
		switch {
		case np:
			c.NP = true
		case na:
			c.NA = true
		default:
			ta, err := price(arm, n)
			if err != nil {
				return Row{}, err
			}
			tm, err := price(ref, n)
			if err != nil {
				return Row{}, err
			}
			c.Speedup = float64(tm) / float64(ta)
		}
		row.Cells = append(row.Cells, c)
	}
	return row, nil
}

func (p Pair) alyaRow(nodes []int) (Row, error) {
	ma, mm, err := modelPair(p, alya.NewModel, alya.TestCaseB())
	if err != nil {
		return Row{}, err
	}
	return speedupRow("Alya", nodes, ma, mm,
		// The paper measured up to 64/78 nodes.
		func(n int) (bool, bool) { return n < ma.MinNodes() || n < mm.MinNodes(), n > 64 },
		func(mod *alya.Model, n int) (units.Seconds, error) {
			_, _, total, err := mod.StepTimes(n)
			return total, err
		})
}

func (p Pair) openifsRow(nodes []int) (Row, error) {
	singleA, singleM, err := modelPair(p, openifs.NewModel, openifs.TL255L91())
	if err != nil {
		return Row{}, err
	}
	multiA, multiM, err := modelPair(p, openifs.NewModel, openifs.TC0511L91())
	if err != nil {
		return Row{}, err
	}
	cores := p.Arm.Node.Cores()
	// One node runs the single-node input (Fig. 14), more run TC0511L91.
	return speedupRow("OpenIFS", nodes, [2]*openifs.Model{singleA, multiA}, [2]*openifs.Model{singleM, multiM},
		func(n int) (bool, bool) { return n != 1 && n < multiA.MinNodes(), n > 128 },
		func(mods [2]*openifs.Model, n int) (units.Seconds, error) {
			if n == 1 {
				return mods[0].DayTime(1, cores)
			}
			return mods[1].DayTime(n, n*cores)
		})
}

func (p Pair) gromacsRow(nodes []int) (Row, error) {
	ma, mm, err := modelPair(p, gromacs.NewModel, gromacs.LignocelluloseRF())
	if err != nil {
		return Row{}, err
	}
	return speedupRow("Gromacs", nodes, ma, mm,
		func(int) (bool, bool) { return false, false },
		func(mod *gromacs.Model, n int) (units.Seconds, error) {
			return mod.StepTime(gromacs.Layout{Nodes: n, Ranks: 8 * n, ThreadsPerRank: 6})
		})
}

func (p Pair) wrfRow(nodes []int) (Row, error) {
	ma, mm, err := modelPair(p, wrf.NewModel, wrf.Iberia4km())
	if err != nil {
		return Row{}, err
	}
	return speedupRow("WRF", nodes, ma, mm,
		// The paper measured up to 64 nodes.
		func(n int) (bool, bool) { return false, n > 64 },
		func(mod *wrf.Model, n int) (units.Seconds, error) { return mod.ElapsedTime(n, true) })
}

func (p Pair) nemoRow(nodes []int) (Row, error) {
	ma, mm, err := modelPair(p, nemo.NewModel, nemo.BenchORCA1())
	if err != nil {
		return Row{}, err
	}
	return speedupRow("NEMO", nodes, ma, mm,
		// The paper reports only the 16-node comparison.
		func(n int) (bool, bool) { return n < ma.MinNodes(), n != 16 },
		(*nemo.Model).ExecutionTime)
}

// RenderTableIV formats the rows as the paper's Table IV.
func RenderTableIV(rows []Row) *report.Table {
	t := &report.Table{
		Title:   "Table IV: speedup of CTE-Arm relative to MareNostrum 4",
		Headers: []string{"Applications", "1", "16", "32", "64", "128", "192"},
	}
	for _, r := range rows {
		cells := []string{r.App}
		for _, c := range r.Cells {
			cells = append(cells, c.String())
		}
		t.AddRow(cells...)
	}
	return t
}
