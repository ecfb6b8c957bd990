package cli

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"clustereval/internal/core"
	"clustereval/internal/experiment"
	"clustereval/internal/figures"
	"clustereval/internal/report"
)

func init() {
	registerTool(&Tool{Name: "clustereval",
		Bind: func(fs *flag.FlagSet) func(experiment.Spec) error {
			table := fs.Int("table", 0, "render one table (1..4); 0 = all")
			figure := fs.Int("figure", 0, "render one figure (1..16); 0 = all")
			csv := fs.Bool("csv", false, "emit tables as CSV")
			out := fs.String("out", "", "write every table and figure as CSV files into this directory")
			kind := fs.String("kind", "", "run one experiment kind from the registry and print its result as JSON (see -spec)")
			spec := fs.String("spec", "", `JSON parameters for -kind, e.g. '{"app":"alya","nodes":32}'`)
			cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
			memprofile := fs.String("memprofile", "", "write a heap profile to this file after the run")
			return func(experiment.Spec) error {
				return withProfiling(*cpuprofile, *memprofile, func() error {
					switch {
					case *kind != "":
						return RunKind(context.Background(), *kind, *spec, os.Stdout)
					case *out != "":
						return ExportAll(*out)
					default:
						return Eval(*table, *figure, *csv)
					}
				})
			}
		}})
}

// RunKind executes one registry kind directly — the generic path that
// makes every registered experiment reachable from the clustereval binary
// without a dedicated flag set. params is a JSON object of spec fields
// (without "kind"); the result is printed as indented JSON, preceded by
// the run's summary and the cache key clusterd would file it under.
func RunKind(ctx context.Context, kind, params string, w io.Writer) error {
	var spec experiment.Spec
	if params != "" {
		dec := json.NewDecoder(strings.NewReader(params))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return fmt.Errorf("invalid -spec: %w", err)
		}
	}
	spec.Kind = kind
	norm, key, err := experiment.Canonicalize(spec)
	if err != nil {
		return err
	}
	res, err := experiment.Run(ctx, norm)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# %s\n# cache key %s\n", res.Summary, key)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// Eval reproduces the paper's tables and figures on stdout: everything by
// default, or one table / one figure when selected.
func Eval(table, figure int, csv bool) error {
	ev := core.New()
	pair := figures.Default()

	emitTable := func(t *report.Table) error {
		if csv {
			return t.CSV(os.Stdout)
		}
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		return nil
	}

	tables := map[int]func() (*report.Table, error){
		1: func() (*report.Table, error) { return ev.TableI(), nil },
		2: func() (*report.Table, error) { return ev.TableII(), nil },
		3: func() (*report.Table, error) { return ev.TableIII(), nil },
		4: func() (*report.Table, error) {
			rows, err := ev.TableIV()
			if err != nil {
				return nil, err
			}
			return core.RenderTableIV(rows), nil
		},
	}

	figs := map[int]func() error{
		1: func() error {
			t, err := pair.Figure1()
			if err != nil {
				return err
			}
			return emitTable(t)
		},
		2: func() error {
			plot, _, err := pair.Figure2()
			if err != nil {
				return err
			}
			return plot.Render(os.Stdout)
		},
		3: func() error {
			t, _, err := pair.Figure3()
			if err != nil {
				return err
			}
			return emitTable(t)
		},
		4: func() error {
			hm, raw, err := pair.Figure4(256)
			if err != nil {
				return err
			}
			if err := hm.Render(os.Stdout); err != nil {
				return err
			}
			for _, d := range raw.DegradedReceivers(0.5) {
				fmt.Printf("degraded receiver detected: node %d\n", d)
			}
			return nil
		},
		5: func() error {
			t, _, err := pair.Figure5()
			if err != nil {
				return err
			}
			return emitTable(t)
		},
		6: func() error {
			plot, _, err := pair.Figure6()
			if err != nil {
				return err
			}
			return plot.Render(os.Stdout)
		},
		7: func() error {
			t, _, err := pair.Figure7()
			if err != nil {
				return err
			}
			return emitTable(t)
		},
		8:  plotFig(pair.Figure8),
		9:  plotFig(pair.Figure9),
		10: plotFig(pair.Figure10),
		11: plotFig(pair.Figure11),
		12: plotFig(pair.Figure12),
		13: plotFig(pair.Figure13),
		14: plotFig(pair.Figure14),
		15: plotFig(pair.Figure15),
		16: plotFig(pair.Figure16),
	}

	switch {
	case table > 0:
		f, ok := tables[table]
		if !ok {
			return fmt.Errorf("no table %d (valid: 1..4)", table)
		}
		t, err := f()
		if err != nil {
			return err
		}
		return emitTable(t)
	case figure > 0:
		f, ok := figs[figure]
		if !ok {
			return fmt.Errorf("no figure %d (valid: 1..16)", figure)
		}
		return f()
	default:
		for i := 1; i <= 4; i++ {
			t, err := tables[i]()
			if err != nil {
				return err
			}
			if err := emitTable(t); err != nil {
				return err
			}
		}
		for i := 1; i <= 16; i++ {
			if err := figs[i](); err != nil {
				return err
			}
			fmt.Println()
		}
		// Section VI: the paper's conclusions, re-derived and checked.
		findings, err := ev.Conclusions()
		if err != nil {
			return err
		}
		fmt.Println("Conclusions (Section VI), checked against the models:")
		for _, f := range findings {
			mark := "ok  "
			if !f.Holds {
				mark = "FAIL"
			}
			fmt.Printf("  [%s] %s — %s\n", mark, f.Statement, f.Evidence)
		}
		return nil
	}
}

func plotFig(f func() (*report.Plot, error)) func() error {
	return func() error {
		plot, err := f()
		if err != nil {
			return err
		}
		return plot.Render(os.Stdout)
	}
}

// ExportAll writes every table and figure of the reproduction as CSV
// files under dir, so the data can be replotted with external tooling.
func ExportAll(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, emit func(w io.Writer) error) error {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("wrote", path)
		return nil
	}

	ev := core.New()
	pair := figures.Default()

	// Paper order — Tables I–IV, Figs. 1–16 — then the energy table;
	// a slice, so every run logs the same sequence.
	type csvSource interface{ CSV(io.Writer) error }
	artefacts := []struct {
		name string
		get  func() (csvSource, error)
	}{
		{"table1.csv", func() (csvSource, error) { return ev.TableI(), nil }},
		{"table2.csv", func() (csvSource, error) { return ev.TableII(), nil }},
		{"table3.csv", func() (csvSource, error) { return ev.TableIII(), nil }},
		{"table4.csv", func() (csvSource, error) {
			rows, err := ev.TableIV()
			if err != nil {
				return nil, err
			}
			return core.RenderTableIV(rows), nil
		}},
		{"fig1.csv", func() (csvSource, error) { return pair.Figure1() }},
		{"fig2.csv", func() (csvSource, error) {
			p, _, err := pair.Figure2()
			return p, err
		}},
		{"fig3.csv", func() (csvSource, error) {
			t, _, err := pair.Figure3()
			return t, err
		}},
		{"fig4.csv", func() (csvSource, error) {
			hm, _, err := pair.Figure4(256)
			return hm, err
		}},
		{"fig5.csv", func() (csvSource, error) {
			t, _, err := pair.Figure5()
			return t, err
		}},
		{"fig6.csv", func() (csvSource, error) {
			p, _, err := pair.Figure6()
			return p, err
		}},
		{"fig7.csv", func() (csvSource, error) {
			t, _, err := pair.Figure7()
			return t, err
		}},
		{"fig8.csv", func() (csvSource, error) { return pair.Figure8() }},
		{"fig9.csv", func() (csvSource, error) { return pair.Figure9() }},
		{"fig10.csv", func() (csvSource, error) { return pair.Figure10() }},
		{"fig11.csv", func() (csvSource, error) { return pair.Figure11() }},
		{"fig12.csv", func() (csvSource, error) { return pair.Figure12() }},
		{"fig13.csv", func() (csvSource, error) { return pair.Figure13() }},
		{"fig14.csv", func() (csvSource, error) { return pair.Figure14() }},
		{"fig15.csv", func() (csvSource, error) { return pair.Figure15() }},
		{"fig16.csv", func() (csvSource, error) { return pair.Figure16() }},
		// Beyond the paper: modeled energy-to-solution for every workload
		// on every registered machine preset.
		{"energy.csv", func() (csvSource, error) { return figures.EnergyToSolution() }},
	}
	for _, a := range artefacts {
		src, err := a.get()
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		if err := write(a.name, src.CSV); err != nil {
			return err
		}
	}
	return nil
}
