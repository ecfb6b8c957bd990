package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// line renders one `go test -bench -benchmem` result line.
func line(name string, ns, allocs int) string {
	return fmt.Sprintf("%s-8   \t    1000\t%d ns/op\t  4096 B/op\t%d allocs/op\n", name, ns, allocs)
}

func mustParse(t *testing.T, out string) map[string]*samples {
	t.Helper()
	res, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMedianOverRepeatedLines(t *testing.T) {
	out := "goos: linux\npkg: clustereval/internal/des\n" +
		line("BenchmarkDES_EventChurn", 900, 10) +
		line("BenchmarkDES_EventChurn", 5000, 12) + // one slow outlier round
		line("BenchmarkDES_EventChurn", 1000, 11) +
		line("BenchmarkDES_EventChurn", 1100, 11) +
		line("BenchmarkDES_EventChurn", 950, 40) +
		"PASS\nok  \tclustereval/internal/des\t3.2s\n"
	s := mustParse(t, out)["BenchmarkDES_EventChurn"]
	if s == nil || len(s.ns) != 5 || len(s.allocs) != 5 {
		t.Fatalf("parsed %+v, want 5 ns and 5 allocs samples", s)
	}
	if got := median(s.ns); got != 1000 {
		t.Errorf("median ns = %v, want 1000", got)
	}
	if got := median(s.allocs); got != 11 {
		t.Errorf("median allocs = %v, want 11", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even-count median = %v, want 2.5", got)
	}
	// The outlier round alone does not regress a head whose median holds.
	base := mustParse(t, line("BenchmarkDES_EventChurn", 1000, 11))
	regs, err := compare(base, mustParse(t, out), io.Discard)
	if err != nil || len(regs) != 0 {
		t.Errorf("compare = %v, %v; want no regression from one outlier round", regs, err)
	}
}

func TestThresholdAndFloor(t *testing.T) {
	cases := []struct {
		name                 string
		baseNs, headNs       int
		baseAlloc, headAlloc int
		want                 []string // substrings of the expected regressions
	}{
		{"within 10%", 100000, 109000, 1000, 1090, nil},
		{"ns over 10%", 100000, 111000, 1000, 1000, []string{"ns/op"}},
		{"allocs over 10%", 100000, 100000, 1000, 1200, []string{"allocs/op"}},
		{"both over", 100000, 150000, 1000, 2000, []string{"ns/op", "allocs/op"}},
		// +50% on a 150 ns benchmark is 75 ns: under the 100 ns floor.
		{"ns under floor", 150, 225, 4, 4, nil},
		// +50% of 4 allocs is 2: not more than the 2-alloc floor.
		{"allocs under floor", 100000, 100000, 4, 6, nil},
		{"allocs over floor", 100000, 100000, 4, 7, []string{"allocs/op"}},
		{"faster is fine", 100000, 50000, 1000, 10, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := mustParse(t, line("BenchmarkMPISim_X", c.baseNs, c.baseAlloc))
			head := mustParse(t, line("BenchmarkMPISim_X", c.headNs, c.headAlloc))
			regs, err := compare(base, head, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if len(regs) != len(c.want) {
				t.Fatalf("regressions %q, want %d matching %q", regs, len(c.want), c.want)
			}
			for i, w := range c.want {
				if !strings.Contains(regs[i], w) || !strings.HasPrefix(regs[i], "BenchmarkMPISim_X:") {
					t.Errorf("regression %q does not name the benchmark and %s", regs[i], w)
				}
			}
		})
	}
}

func TestOneSidedBenchmarkListedNotFailed(t *testing.T) {
	base := mustParse(t, line("BenchmarkDES_SpawnReuse", 1000, 10)+line("BenchmarkDES_Gone", 1000, 10))
	head := mustParse(t, line("BenchmarkDES_SpawnReuse", 1000, 10)+line("BenchmarkDES_New", 99999, 999))
	var out strings.Builder
	regs, err := compare(base, head, &out)
	if err != nil || len(regs) != 0 {
		t.Fatalf("compare = %v, %v; want a pass", regs, err)
	}
	for _, want := range []string{"BenchmarkDES_Gone", "only in base", "BenchmarkDES_New", "only in head", "1 benchmark(s) compared"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

func TestNoSharedBenchmarkFails(t *testing.T) {
	for _, c := range []struct{ name, base, head string }{
		{"disjoint", line("BenchmarkDES_A", 1000, 1), line("BenchmarkDES_B", 1000, 1)},
		{"empty head", line("BenchmarkDES_A", 1000, 1), "PASS\n"},
		{"both empty", "", ""},
	} {
		if _, err := compare(mustParse(t, c.base), mustParse(t, c.head), io.Discard); err == nil {
			t.Errorf("%s: compare passed with nothing compared", c.name)
		}
	}
}

// TestRunExitStatus drives the command end to end on files.
func TestRunExitStatus(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base", line("BenchmarkDES_A", 1000, 10))
	same := write("same", line("BenchmarkDES_A", 1050, 10))
	slow := write("slow", line("BenchmarkDES_A", 2000, 10))
	other := write("other", line("BenchmarkDES_B", 1000, 10))
	for _, c := range []struct {
		name string
		args []string
		want int
	}{
		{"pass", []string{base, same}, 0},
		{"regression", []string{base, slow}, 1},
		{"nothing shared", []string{base, other}, 1},
		{"missing file", []string{base, filepath.Join(dir, "absent")}, 1},
		{"one argument", []string{base}, 2},
		{"a flag", []string{"-record", base, same}, 2},
	} {
		var stderr strings.Builder
		if got := run(c.args, io.Discard, &stderr); got != c.want {
			t.Errorf("%s: exit %d, want %d (stderr %q)", c.name, got, c.want, stderr.String())
		}
		if c.name == "regression" && !strings.Contains(stderr.String(), "BenchmarkDES_A: ns/op") {
			t.Errorf("regression stderr does not name the benchmark: %q", stderr.String())
		}
	}
}
