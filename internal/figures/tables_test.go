package figures

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestTableIRendering(t *testing.T) {
	e := Default()
	tb := e.TableI()
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"A64FX", "Intel Xeon Platinum 8160", "70.40", "67.20",
		"3379.20", "3225.60", "1024", "256", "TofuD", "Intel OmniPath",
		"6.80", "12.00", "192", "3456",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestTableIIAndIII(t *testing.T) {
	e := Default()
	var buf bytes.Buffer
	if err := e.TableII().Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "-Kzfill=100") {
		t.Error("Table II missing Fujitsu tuning flags")
	}
	buf.Reset()
	if err := e.TableIII().Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, app := range []string{"Alya", "NEMO", "Gromacs", "OpenIFS", "WRF"} {
		if strings.Count(out, app) < 2 {
			t.Errorf("Table III should list %s twice", app)
		}
	}
}

func TestTableIVAgainstPaper(t *testing.T) {
	e := Default()
	rows, err := e.TableIV()
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]Row{}
	order := []string{}
	for _, r := range rows {
		byApp[r.App] = r
		order = append(order, r.App)
	}
	wantOrder := []string{"LINPACK", "HPCG", "Alya", "OpenIFS", "Gromacs", "WRF", "NEMO"}
	for i, app := range wantOrder {
		if order[i] != app {
			t.Fatalf("row order %v, want %v", order, wantOrder)
		}
	}

	// The paper's Table IV, with the tolerances DESIGN.md sets out.
	// Entries the model knowingly deviates on (documented outliers) carry
	// wider tolerances.
	type expect struct {
		value float64
		tol   float64
	}
	paper := map[string]map[int]expect{
		"LINPACK": {1: {1.25, 0.05}, 16: {1.28, 0.06}, 32: {1.38, 0.09},
			64: {1.35, 0.07}, 128: {1.70, 0.35}, 192: {1.40, 0.07}},
		"HPCG":    {1: {2.50, 0.13}, 192: {3.24, 0.20}},
		"Alya":    {16: {0.30, 0.03}, 32: {0.31, 0.03}, 64: {0.37, 0.08}},
		"OpenIFS": {1: {0.31, 0.02}, 32: {0.28, 0.025}, 64: {0.31, 0.025}, 128: {0.39, 0.025}},
		"Gromacs": {1: {0.32, 0.02}, 16: {0.36, 0.025}, 32: {0.38, 0.025},
			64: {0.43, 0.04}, 128: {0.54, 0.06}, 192: {0.33, 0.40}},
		"WRF":  {1: {0.49, 0.04}, 16: {0.46, 0.02}, 32: {0.60, 0.16}, 64: {0.64, 0.20}},
		"NEMO": {16: {0.56, 0.04}},
	}
	np := map[string][]int{
		"Alya": {1}, "OpenIFS": {16}, "NEMO": {1},
	}
	for app, cols := range paper {
		row, ok := byApp[app]
		if !ok {
			t.Fatalf("missing row %s", app)
		}
		for _, cell := range row.Cells {
			if want, ok := cols[cell.Nodes]; ok {
				if cell.NP || cell.NA {
					t.Errorf("%s@%d: got %s, want %.2f", app, cell.Nodes, cell.String(), want.value)
					continue
				}
				if math.Abs(cell.Speedup-want.value) > want.tol {
					t.Errorf("%s@%d: speedup %.3f, paper %.2f (tol %.2f)",
						app, cell.Nodes, cell.Speedup, want.value, want.tol)
				}
			}
		}
		for _, n := range np[app] {
			for _, cell := range row.Cells {
				if cell.Nodes == n && !cell.NP {
					t.Errorf("%s@%d: want NP, got %s", app, n, cell.String())
				}
			}
		}
	}

	// Conclusion sanity: synthetic benchmarks speed up (LINPACK up to
	// ~1.7x, HPCG up to ~3.4x); applications slow down (1.6x-3.4x).
	for _, cell := range byApp["LINPACK"].Cells {
		if !cell.NA && !cell.NP && cell.Speedup <= 1 {
			t.Errorf("LINPACK@%d: CTE-Arm should win (%.2f)", cell.Nodes, cell.Speedup)
		}
	}
	for _, app := range []string{"Alya", "OpenIFS", "Gromacs", "WRF", "NEMO"} {
		for _, cell := range byApp[app].Cells {
			if !cell.NA && !cell.NP && cell.Speedup >= 1 {
				t.Errorf("%s@%d: applications should slow down (%.2f)", app, cell.Nodes, cell.Speedup)
			}
		}
	}
}

func TestRenderTableIV(t *testing.T) {
	e := Default()
	rows, err := e.TableIV()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderTableIV(rows).Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "NP") || !strings.Contains(out, "N/A") {
		t.Errorf("Table IV missing NP/N/A markers:\n%s", out)
	}
	if !strings.Contains(out, "LINPACK") || !strings.Contains(out, "NEMO") {
		t.Errorf("Table IV missing rows:\n%s", out)
	}
}

func TestConclusionsAllHold(t *testing.T) {
	e := Default()
	findings, err := e.Conclusions()
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 7 {
		t.Fatalf("%d findings, want 7", len(findings))
	}
	for _, f := range findings {
		if !f.Holds {
			t.Errorf("conclusion does not hold: %s (%s)", f.Statement, f.Evidence)
		}
		if f.Evidence == "" {
			t.Errorf("conclusion without evidence: %s", f.Statement)
		}
	}
}

func TestCellString(t *testing.T) {
	if (Cell{NP: true}).String() != "NP" {
		t.Error("NP cell")
	}
	if (Cell{NA: true}).String() != "N/A" {
		t.Error("NA cell")
	}
	if (Cell{Speedup: 1.234}).String() != "1.23" {
		t.Error("value cell")
	}
}
