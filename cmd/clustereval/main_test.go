package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clustereval/internal/experiment/cli"
)

// -update regenerates the golden files from current output.
var update = flag.Bool("update", false, "rewrite golden files")

// capture runs f with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	errRun := f()
	w.Close()
	os.Stdout = old
	out := <-done
	if errRun != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", errRun, out)
	}
	return out
}

func TestRunTable4(t *testing.T) {
	out := capture(t, func() error { return cli.Eval(4, 0, false) })
	for _, want := range []string{"LINPACK", "NEMO", "NP", "N/A"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 4 output missing %q", want)
		}
	}
}

func TestRunTable4CSV(t *testing.T) {
	out := capture(t, func() error { return cli.Eval(4, 0, true) })
	if !strings.Contains(out, "Applications,1,16,32,64,128,192") {
		t.Errorf("CSV header missing:\n%s", out)
	}
}

// TestRunTable4CSVGolden pins the exact Table IV CSV byte-for-byte. The
// table aggregates HPL, HPCG and all five application models, so any
// accidental drift anywhere in the simulation stack shows up here as a
// one-line diff. Refresh intentionally with: go test ./cmd/clustereval -update
func TestRunTable4CSVGolden(t *testing.T) {
	out := capture(t, func() error { return cli.Eval(4, 0, true) })
	golden := filepath.Join("testdata", "table4.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("table 4 CSV drifted from golden file %s\n--- got ---\n%s--- want ---\n%s",
			golden, out, want)
	}
}

func TestRunFigure(t *testing.T) {
	out := capture(t, func() error { return cli.Eval(0, 6, false) })
	if !strings.Contains(out, "Linpack scalability") {
		t.Errorf("figure 6 output wrong:\n%s", out)
	}
	out = capture(t, func() error { return cli.Eval(0, 4, false) })
	if !strings.Contains(out, "degraded receiver detected: node 23") {
		t.Errorf("figure 4 should flag node 23:\n%s", out)
	}
}

func TestExportAll(t *testing.T) {
	dir := t.TempDir()
	out := capture(t, func() error { return cli.ExportAll(dir) })
	// The log lists every file in paper order: tables, figures, energy.
	var want, got []string
	for i := 1; i <= 4; i++ {
		want = append(want, fmt.Sprintf("table%d.csv", i))
	}
	for i := 1; i <= 16; i++ {
		want = append(want, fmt.Sprintf("fig%d.csv", i))
	}
	want = append(want, "energy.csv")
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		got = append(got, filepath.Base(strings.TrimPrefix(line, "wrote ")))
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("export log order:\n got %v\nwant %v", got, want)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// 4 tables + 16 figures + the energy-to-solution table.
	if len(entries) != 21 {
		t.Errorf("exported %d files, want 21", len(entries))
	}
	data, err := os.ReadFile(dir + "/fig2.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "series,x,y\n") {
		t.Errorf("fig2.csv header wrong: %.40s", data)
	}
}

func TestRunRejectsBadSelectors(t *testing.T) {
	if err := cli.Eval(9, 0, false); err == nil {
		t.Error("table 9 accepted")
	}
	if err := cli.Eval(0, 99, false); err == nil {
		t.Error("figure 99 accepted")
	}
}

// TestExportGoldenCSVs pins the exported CSVs of the paper's headline
// benchmark figures byte-for-byte: Fig. 2 (STREAM Triad sweep), Fig. 5
// (network bandwidth distribution), Fig. 6 (HPL scalability) and Fig. 7
// (HPCG). Together with table4.golden this covers the memory, network and
// compute layers of the simulation, so any unintended drift anywhere below
// shows up as a CSV diff. Refresh intentionally with:
//
//	go test ./cmd/clustereval -run TestExportGoldenCSVs -update
func TestExportGoldenCSVs(t *testing.T) {
	dir := t.TempDir()
	capture(t, func() error { return cli.ExportAll(dir) })

	for _, name := range []string{"fig2.csv", "fig5.csv", "fig6.csv", "fig7.csv"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join("testdata", name+".golden")
		if *update {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from %s\n--- got ---\n%s--- want ---\n%s",
				name, golden, got, want)
		}
	}
}

// TestOutputGoldens pins clustereval's whole stdout, its -csv mode and
// each subcommand's report byte for byte. The goldens were recorded from
// the six per-kind binaries the subcommands replaced (fpubench,
// streambench, netbench, hplbench, hpcgbench, appbench), so they also
// prove the move changed no output. Refresh intentionally with:
//
//	go test ./cmd/clustereval -run TestOutputGoldens -update
func TestOutputGoldens(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"clustereval.golden", nil},
		{"clustereval-csv.golden", []string{"-csv"}},
		{"fpu.golden", []string{"fpu"}},
		{"fpu-variability.golden", []string{"fpu", "-variability"}},
		{"stream.golden", []string{"stream"}},
		{"net.golden", []string{"net"}},
		{"net-seed7.golden", []string{"net", "-seed", "7"}},
		{"hpl.golden", []string{"hpl"}},
		{"hpcg.golden", []string{"hpcg"}},
		{"app.golden", []string{"app"}},
		{"app-alya.golden", []string{"app", "-app", "alya"}},
	} {
		out := capture(t, func() error {
			if code := cli.Main(tc.args); code != 0 {
				return fmt.Errorf("clustereval %v exited %d", tc.args, code)
			}
			return nil
		})
		golden := filepath.Join("testdata", tc.golden)
		if *update {
			if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if out != string(want) {
			t.Errorf("clustereval %v drifted from %s\n--- got ---\n%s--- want ---\n%s",
				tc.args, golden, out, want)
		}
	}
}
