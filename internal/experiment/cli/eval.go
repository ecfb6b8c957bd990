package cli

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"clustereval/internal/experiment"
	"clustereval/internal/figures"
	"clustereval/internal/report"
)

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
	pair := figures.Default()
	arts := figures.Artefacts()
	switch {
	case table > 0:
		i := slices.IndexFunc(arts, func(a figures.Artefact) bool { return a.Table == table })
		if i < 0 {
			return fmt.Errorf("no table %d (valid: 1..4)", table)
		}
		return emit(pair, arts[i], csv)
	case figure > 0:
		i := slices.IndexFunc(arts, func(a figures.Artefact) bool { return a.Figure == figure })
		if i < 0 {
			return fmt.Errorf("no figure %d (valid: 1..16)", figure)
		}
		return emit(pair, arts[i], csv)
	}
	for _, a := range arts {
		if a.Table == 0 && a.Figure == 0 {
			continue // beyond the paper: exported, not printed
		}
		if err := emit(pair, a, csv); err != nil {
			return err
		}
		if a.Figure > 0 {
			fmt.Println()
		}
	}
	// Section VI: the paper's conclusions, re-derived and checked.
	findings, err := pair.Conclusions()
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

// emit prints one artefact on stdout. A table, or a figure the paper
// draws as one, is printed as CSV under -csv and as text followed by a
// blank line otherwise; plots and heatmaps are always text, followed by
// their note.
func emit(pair figures.Pair, a figures.Artefact, csv bool) error {
	r, note, err := a.Make(pair)
	if err != nil {
		return err
	}
	if _, isTable := r.(*report.Table); isTable {
		if csv {
			return r.CSV(os.Stdout)
		}
		note += "\n" // a blank line closes a text table
	}
	if err := r.Render(os.Stdout); err != nil {
		return err
	}
	_, err = io.WriteString(os.Stdout, note)
	return err
}

// ExportAll writes every table and figure of the reproduction, and the
// energy table, as CSV files under dir, so the data can be replotted with
// external tooling. Files are written, and logged, in paper order.
func ExportAll(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	pair := figures.Default()
	for _, a := range figures.Artefacts() {
		name := a.Name + ".csv"
		r, _, err := a.Make(pair)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := r.CSV(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}
