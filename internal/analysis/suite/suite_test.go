package suite_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles cmd/clusterlint into dir and returns the binary
// path and the module root it was built from.
func buildTool(t *testing.T, dir string) (tool, moduleRoot string) {
	t.Helper()
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	moduleRoot = strings.TrimSpace(string(out))
	tool = filepath.Join(dir, "clusterlint")
	cmd := exec.Command("go", "build", "-o", tool, "./cmd/clusterlint")
	cmd.Dir = moduleRoot
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building clusterlint: %v\n%s", err, b)
	}
	return tool, moduleRoot
}

// vet runs `go vet -vettool=tool ./...` in dir.
func vet(tool, dir string) (stderr string, err error) {
	cmd := exec.Command("go", "vet", "-vettool="+tool, "./...")
	cmd.Dir = dir
	var buf bytes.Buffer
	cmd.Stderr = &buf
	err = cmd.Run()
	return buf.String(), err
}

// TestModuleIsClean is the self-hosting guarantee: the suite, run the
// same way `make lint` runs it, finds nothing in the tree at HEAD.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet over the whole module")
	}
	tool, root := buildTool(t, t.TempDir())
	if stderr, err := vet(tool, root); err != nil {
		t.Fatalf("clusterlint is not clean at HEAD:\n%s", stderr)
	}
}

// writeTree populates a scratch module rooted at dir.
func writeTree(t *testing.T, dir string) func(rel, content string) {
	t.Helper()
	return func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSeededViolationsFail seeds one violation per analyzer family — a
// time.Now call in internal/mpisim, an unsorted map range in a
// canonicalization function, an inconsistent lock pair, an exit-less
// goroutine and a mixed atomic/plain field — into a scratch module with
// this module's path, and requires a non-zero go vet exit naming every
// analyzer and both determinism findings.
func TestSeededViolationsFail(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the vettool and a scratch module")
	}
	tool, _ := buildTool(t, t.TempDir())

	scratch := t.TempDir()
	write := writeTree(t, scratch)
	write("go.mod", "module clustereval\n\ngo 1.22\n")
	write("internal/mpisim/bad.go", `package mpisim

import "time"

func Stamp() time.Time { return time.Now() }
`)
	write("internal/experiment/canon.go", `package experiment

import (
	"fmt"
	"strings"
)

func Canonicalize(params map[string]string) string {
	var b strings.Builder
	for k, v := range params {
		fmt.Fprintf(&b, "%s=%s;", k, v)
	}
	return b.String()
}
`)
	write("internal/fleet/bad.go", `package fleet

import (
	"sync"
	"sync/atomic"
)

type pool struct{ mu sync.Mutex }
type shard struct{ mu sync.Mutex }

func One(p *pool, s *shard) {
	p.mu.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	p.mu.Unlock()
}

func Two(p *pool, s *shard) {
	s.mu.Lock()
	p.mu.Lock()
	p.mu.Unlock()
	s.mu.Unlock()
}

func Run() {
	go func() {
		for {
		}
	}()
}

type counter struct{ n int64 }

func (c *counter) inc() { atomic.AddInt64(&c.n, 1) }

func (c *counter) read() int64 { return c.n }
`)

	stderr, err := vet(tool, scratch)
	if err == nil {
		t.Fatal("go vet exited 0 over seeded violations")
	}
	for _, needle := range []string{
		"[detflow]",
		"call to time.Now in a simulation package",
		"map iteration order is random but reaches Fprintf in Canonicalize",
		"[lockorder]", "inconsistent lock-pair ordering",
		"[goroleak]", "no reachable exit path",
		"[atomicfield]", "accessed via sync/atomic elsewhere",
	} {
		if !strings.Contains(stderr, needle) {
			t.Errorf("vet output missing %q:\n%s", needle, stderr)
		}
	}
}

// TestJSONMode drives clusterlint the way tooling does: `go vet
// -vettool=... -json ./...` must exit 0, keep stderr free of findings,
// and emit one decodable {"pkg": {"analyzer": [diagnostics]}} object
// per package on stdout — including suppressed findings, flagged with
// their justification, which the text mode drops.
func TestJSONMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the vettool and a scratch module")
	}
	tool, _ := buildTool(t, t.TempDir())

	scratch := t.TempDir()
	write := writeTree(t, scratch)
	write("go.mod", "module clustereval\n\ngo 1.22\n")
	write("internal/mpisim/bad.go", `package mpisim

import "time"

func Stamp() time.Time { return time.Now() }

func Waived() time.Time {
	//lint:allow detflow scratch fixture exercising the JSON suppressed field
	return time.Now()
}
`)

	cmd := exec.Command("go", "vet", "-vettool="+tool, "-json", "./...")
	cmd.Dir = scratch
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("go vet -json exited non-zero: %v\nstderr:\n%s", err, stderr.String())
	}

	// go vet relays the vettool's stdout onto its own stderr, prefixed
	// with `# <package>` header lines; strip those before decoding.
	var jsonText strings.Builder
	for _, line := range strings.Split(stdout.String()+stderr.String(), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		jsonText.WriteString(line)
		jsonText.WriteByte('\n')
	}

	type diag struct {
		Posn          string `json:"posn"`
		File          string `json:"file"`
		Line          int    `json:"line"`
		Analyzer      string `json:"analyzer"`
		Message       string `json:"message"`
		Suppressed    bool   `json:"suppressed"`
		Justification string `json:"justification"`
	}
	var all []diag
	dec := json.NewDecoder(strings.NewReader(jsonText.String()))
	for dec.More() {
		var payload map[string]map[string][]diag
		if err := dec.Decode(&payload); err != nil {
			t.Fatalf("decoding -json output: %v", err)
		}
		for _, byAnalyzer := range payload {
			for _, ds := range byAnalyzer {
				all = append(all, ds...)
			}
		}
	}
	var live, waived int
	for _, d := range all {
		if d.Analyzer != "detflow" || d.File == "" || d.Line == 0 || d.Posn == "" {
			t.Errorf("malformed diagnostic: %+v", d)
		}
		if d.Suppressed {
			waived++
			if !strings.Contains(d.Justification, "scratch fixture") {
				t.Errorf("suppressed diagnostic lost its justification: %+v", d)
			}
		} else {
			live++
		}
	}
	if live != 1 || waived != 1 {
		t.Errorf("want 1 live + 1 suppressed detflow finding, got %d live %d suppressed:\n%+v", live, waived, all)
	}
}

// TestDetflowCatchesCrossFunction is the acceptance case for the taint
// engine: the wall-clock read hides one call away, in a package outside
// the simulation scope where time.Now is banned outright, and only
// surfaces where its value reaches the canonical encoder.
func TestDetflowCatchesCrossFunction(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the vettool and a scratch module")
	}
	tool, _ := buildTool(t, t.TempDir())

	scratch := t.TempDir()
	write := writeTree(t, scratch)
	write("go.mod", "module clustereval\n\ngo 1.22\n")
	// internal/report is not a simulation package, so its time.Now call
	// is not banned.
	write("internal/report/stamp.go", `package report

import "time"

func Stamp() string { return time.Now().Format(time.RFC3339) }
`)
	// internal/experiment is a simulation package, but this file contains
	// no direct nondeterminism source — only the call chain.
	write("internal/experiment/key.go", `package experiment

import (
	"strings"

	"clustereval/internal/report"
)

func Canonicalize(parts ...string) string { return strings.Join(parts, "|") }

func Key() string { return Canonicalize("spec", report.Stamp()) }
`)

	stderr, err := vet(tool, scratch)
	if err == nil {
		t.Fatal("go vet exited 0 over the cross-function determinism leak")
	}
	for _, needle := range []string{
		"[detflow]", "the return value of Stamp", "reaches canonical encoder",
	} {
		if !strings.Contains(stderr, needle) {
			t.Errorf("vet output missing %q:\n%s", needle, stderr)
		}
	}
}
