// Package figures regenerates the paper's evaluation for one machine
// pair: Tables I–IV, Figs. 1–16 and the Section VI conclusions, each as a
// renderable report object, plus an energy table beyond the paper.
// Artefacts lists them in paper order, and clustereval prints and exports
// them by walking that list. The per-kind experiment wiring — machine
// pair, Table II builds, application catalog — lives in the
// internal/experiment registry; this package drives those same registry
// entry points and adds only the presentation (plots, tables, heatmaps).
// clustereval and the examples are thin wrappers over this package; the
// benchmark harness (bench_test.go) drives the same entry points so that
// `go test -bench` reproduces the full evaluation.
package figures

import (
	"fmt"

	"clustereval/internal/apps/alya"
	"clustereval/internal/apps/gromacs"
	"clustereval/internal/apps/nemo"
	"clustereval/internal/apps/openifs"
	"clustereval/internal/apps/scaling"
	"clustereval/internal/apps/wrf"
	"clustereval/internal/bench/fpu"
	"clustereval/internal/bench/osu"
	"clustereval/internal/bench/stream"
	"clustereval/internal/experiment"
	"clustereval/internal/hpcg"
	"clustereval/internal/hpl"
	"clustereval/internal/interconnect"
	"clustereval/internal/machine"
	"clustereval/internal/report"
	"clustereval/internal/toolchain"
	"clustereval/internal/units"
)

// Pair holds the two machines under evaluation. It embeds the registry's
// experiment.Pair, so the per-kind entry points (StreamSeries,
// HybridStreamSeries, AppSeries, MachineByName) are the registry's own —
// the figure renderers below add presentation, not wiring.
type Pair struct {
	experiment.Pair
}

// Default returns the paper's machine pair.
func Default() Pair {
	return Pair{experiment.DefaultPair()}
}

// WithSeed returns the paper's machine pair with an alternative noise seed
// plumbed into both machines' network descriptors; see
// experiment.PairWithSeed.
func WithSeed(seed uint64) Pair {
	return Pair{experiment.PairWithSeed(seed)}
}

// Figure1 runs the FPU µKernel and tabulates sustained performance per
// variant and machine.
func (p Pair) Figure1() (*report.Table, error) {
	bars, err := fpu.Figure1([]machine.Machine{p.Arm, p.Ref}, fpu.DefaultIterations)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Fig. 1: FPU µKernel sustained performance (one core)",
		Headers: []string{"Variant", "Machine", "Sustained", "Peak", "% of peak"},
	}
	for _, b := range bars {
		if !b.Supported {
			t.AddRow(b.Variant.Name(), b.Machine, "unsupported", "-", "-")
			continue
		}
		t.AddRow(b.Variant.Name(), b.Machine,
			b.Sustained.String(), b.Peak.String(), fmt.Sprintf("%.1f", b.PercentOfPeak))
	}
	return t, nil
}

// Figure2 sweeps STREAM Triad over OpenMP thread counts.
func (p Pair) Figure2() (*report.Plot, []stream.Series, error) {
	var all []stream.Series
	plot := &report.Plot{
		Title:  "Fig. 2: STREAM Triad bandwidth, OpenMP (spread binding)",
		XLabel: "threads", YLabel: "GB/s",
	}
	for _, cfg := range []struct {
		m    machine.Machine
		lang toolchain.Language
	}{
		{p.Arm, toolchain.C},
		{p.Arm, toolchain.Fortran},
		{p.Ref, toolchain.C},
		{p.Ref, toolchain.Fortran},
	} {
		s, err := p.StreamSeries(cfg.m.Name, cfg.lang)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, s)
		var xs, ys []float64
		for _, pt := range s.Points {
			xs = append(xs, float64(pt.Threads))
			ys = append(ys, pt.Bandwidth.GB())
		}
		plot.Series = append(plot.Series, report.Series{
			Name: fmt.Sprintf("%s %s (best %.1f GB/s @ %d)", s.Machine, s.Language, s.Best.Bandwidth.GB(), s.Best.Threads),
			X:    xs, Y: ys,
		})
	}
	return plot, all, nil
}

// Figure3 runs the hybrid MPI+OpenMP STREAM Triad.
func (p Pair) Figure3() (*report.Table, []stream.HybridSeries, error) {
	t := &report.Table{
		Title:   "Fig. 3: STREAM Triad bandwidth, MPI+OpenMP (1 rank per NUMA domain)",
		Headers: []string{"Machine", "Language", "Best config", "Bandwidth", "% of peak"},
	}
	var all []stream.HybridSeries
	for _, cfg := range []struct {
		m    machine.Machine
		lang toolchain.Language
	}{
		{p.Arm, toolchain.Fortran},
		{p.Arm, toolchain.C},
		{p.Ref, toolchain.Fortran},
		{p.Ref, toolchain.C},
	} {
		s, err := p.HybridStreamSeries(cfg.m.Name, cfg.lang)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, s)
		t.AddRow(s.Machine, s.Language.String(), s.Best.Label(),
			s.Best.Bandwidth.String(), fmt.Sprintf("%.0f", s.PercentOfPeak))
	}
	return t, all, nil
}

// Figure4 produces the all-pairs bandwidth heatmap of the CTE-Arm torus.
func (p Pair) Figure4(size units.Bytes) (*report.Heatmap, *osu.Heatmap, error) {
	fab, err := interconnect.NewTofuD(p.Arm, p.Arm.Nodes)
	if err != nil {
		return nil, nil, err
	}
	h, err := osu.Figure4(fab, size, osu.DefaultIterations)
	if err != nil {
		return nil, nil, err
	}
	vals := make([][]float64, h.Nodes())
	for s := range h.BW {
		vals[s] = make([]float64, h.Nodes())
		for r, bw := range h.BW[s] {
			vals[s][r] = bw.GB()
		}
	}
	hm := &report.Heatmap{
		Title:      fmt.Sprintf("Fig. 4: bandwidth of all node pairs (msg size %v)", size),
		Values:     vals,
		Downsample: 2,
	}
	return hm, h, nil
}

// Figure5 computes the bandwidth distribution across message sizes.
func (p Pair) Figure5() (*report.Table, *osu.Distribution, error) {
	fab, err := interconnect.NewTofuD(p.Arm, p.Arm.Nodes)
	if err != nil {
		return nil, nil, err
	}
	d, err := osu.Figure5(fab, 0, 24, 90, 4)
	if err != nil {
		return nil, nil, err
	}
	t := &report.Table{
		Title:   "Fig. 5: bandwidth distribution over all node pairs",
		Headers: []string{"Msg size", "Modes", "p95/p5 spread"},
	}
	for i, size := range d.Sizes {
		modes := len(d.Hist[i].Modes(0.12))
		t.AddRow(units.Bytes(size).String(), fmt.Sprint(modes),
			fmt.Sprintf("%.2fx", d.SpreadAt(i)))
	}
	return t, d, nil
}

// Figure6 sweeps HPL over node counts on both machines.
func (p Pair) Figure6() (*report.Plot, map[string][]hpl.Run, error) {
	plot := &report.Plot{
		Title:  "Fig. 6: Linpack scalability",
		XLabel: "nodes", YLabel: "GFlop/s",
		LogX: true, LogY: true,
	}
	out := map[string][]hpl.Run{}
	for _, m := range []machine.Machine{p.Arm, p.Ref} {
		runs, err := hpl.Figure6(m, 192)
		if err != nil {
			return nil, nil, err
		}
		out[m.Name] = runs
		var xs, ys []float64
		for _, r := range runs {
			xs = append(xs, float64(r.Nodes))
			ys = append(ys, r.Perf.Giga())
		}
		last := runs[len(runs)-1]
		plot.Series = append(plot.Series, report.Series{
			Name: fmt.Sprintf("%s (192 nodes: %.0f%% of peak)", m.Name, last.PercentOfPeak),
			X:    xs, Y: ys,
		})
	}
	return plot, out, nil
}

// Figure7 tabulates HPCG for both versions at 1 and 192 nodes.
func (p Pair) Figure7() (*report.Table, []hpcg.Run, error) {
	runs, err := hpcg.Figure7(p.Arm, p.Ref)
	if err != nil {
		return nil, nil, err
	}
	t := &report.Table{
		Title:   "Fig. 7: HPCG performance",
		Headers: []string{"Nodes", "Machine", "Version", "Performance", "% of peak"},
	}
	for _, r := range runs {
		t.AddRow(fmt.Sprint(r.Nodes), r.Machine, r.Version.String(),
			r.Perf.String(), fmt.Sprintf("%.2f", r.PercentOfPeak))
	}
	return t, runs, nil
}

// scalingPlot converts scaling series into a log-log plot.
func scalingPlot(title, ylabel string, series ...scaling.Series) *report.Plot {
	plot := &report.Plot{Title: title, XLabel: "nodes", YLabel: ylabel, LogX: true, LogY: true}
	for _, s := range series {
		name := s.Machine
		if s.Label != "" {
			name += " (" + s.Label + ")"
		}
		var xs, ys []float64
		for _, pt := range s.Sorted() {
			xs = append(xs, float64(pt.Nodes))
			ys = append(ys, float64(pt.Time))
		}
		plot.Series = append(plot.Series, report.Series{Name: name, X: xs, Y: ys})
	}
	return plot
}

// Figure8 returns Alya's time-step scalability.
func (p Pair) Figure8() (*report.Plot, error) {
	cte, ref, err := alya.Figure8(p.Arm, p.Ref)
	if err != nil {
		return nil, err
	}
	return scalingPlot("Fig. 8: Alya average time step [s]", "seconds", cte, ref), nil
}

// Figure9 returns Alya's Assembly-phase scalability.
func (p Pair) Figure9() (*report.Plot, error) {
	cte, ref, err := alya.Figure9(p.Arm, p.Ref)
	if err != nil {
		return nil, err
	}
	return scalingPlot("Fig. 9: Alya Assembly phase [s]", "seconds", cte, ref), nil
}

// Figure10 returns Alya's Solver-phase scalability.
func (p Pair) Figure10() (*report.Plot, error) {
	cte, ref, err := alya.Figure10(p.Arm, p.Ref)
	if err != nil {
		return nil, err
	}
	return scalingPlot("Fig. 10: Alya Solver phase [s]", "seconds", cte, ref), nil
}

// Figure11 returns NEMO's scalability.
func (p Pair) Figure11() (*report.Plot, error) {
	cte, ref, err := nemo.Figure11(p.Arm, p.Ref)
	if err != nil {
		return nil, err
	}
	return scalingPlot("Fig. 11: NEMO execution time [s]", "seconds", cte, ref), nil
}

// Figure12 returns Gromacs single-node scalability (days/ns vs cores).
func (p Pair) Figure12() (*report.Plot, error) {
	cte, ref, err := gromacs.Figure12(p.Arm, p.Ref)
	if err != nil {
		return nil, err
	}
	plot := scalingPlot("Fig. 12: Gromacs single node [days/ns]", "days/ns", cte, ref)
	plot.XLabel = "cores"
	return plot, nil
}

// Figure13 returns Gromacs multi-node scalability.
func (p Pair) Figure13() (*report.Plot, error) {
	cte, ref, err := gromacs.Figure13(p.Arm, p.Ref)
	if err != nil {
		return nil, err
	}
	return scalingPlot("Fig. 13: Gromacs across nodes [days/ns]", "days/ns", cte, ref), nil
}

// Figure14 returns OpenIFS single-node scalability (seconds/day vs ranks).
func (p Pair) Figure14() (*report.Plot, error) {
	cte, ref, err := openifs.Figure14(p.Arm, p.Ref)
	if err != nil {
		return nil, err
	}
	plot := scalingPlot("Fig. 14: OpenIFS TL255L91, one node [s/day]", "s/day", cte, ref)
	plot.XLabel = "ranks"
	return plot, nil
}

// Figure15 returns OpenIFS multi-node scalability.
func (p Pair) Figure15() (*report.Plot, error) {
	cte, ref, err := openifs.Figure15(p.Arm, p.Ref)
	if err != nil {
		return nil, err
	}
	return scalingPlot("Fig. 15: OpenIFS TC0511L91 across nodes [s/day]", "s/day", cte, ref), nil
}

// Figure16 returns WRF scalability with and without IO.
func (p Pair) Figure16() (*report.Plot, error) {
	series, err := wrf.Figure16(p.Arm, p.Ref)
	if err != nil {
		return nil, err
	}
	return scalingPlot("Fig. 16: WRF elapsed time [s]", "seconds", series...), nil
}
