package clustereval_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteOnlyExistingTests requires every test, benchmark, fuzz
// target or example that a top-level doc names in backticks to be
// declared in some _test.go file of the repository, perfbench included,
// so deleting or renaming a test cannot leave a doc pointing at nothing.
func TestDocsCiteOnlyExistingTests(t *testing.T) {
	declaration := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w+)\(`)
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == "testdata" || d.Name() == ".git" || d.Name() == ".bench_build"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range declaration.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	citation := regexp.MustCompile("`((?:Test|Benchmark|Fuzz|Example)\\w+)`")
	cited := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "TESTING.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range citation.FindAllSubmatch(src, -1) {
			cited++
			if name := string(m[1]); !declared[name] {
				t.Errorf("%s cites `%s`, which no _test.go declares", doc, name)
			}
		}
	}
	if cited == 0 {
		t.Error("the docs cite no test: the citation pattern has stopped matching")
	}
}
