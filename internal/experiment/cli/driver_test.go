package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"clustereval/internal/experiment"
)

// TestEveryToolParses proves clustereval and each subcommand build their
// flag sets cleanly (-h reaches flag.ErrHelp), and pins every subcommand
// to exactly the flags its action reads.
func TestEveryToolParses(t *testing.T) {
	want := map[string][]string{ // flag.VisitAll order: sorted
		"fpu":    {"iters", "variability"},
		"stream": {"threads", "verify"},
		"net":    {"des", "seed", "size"},
		"hpl":    {"nb", "threads", "verify"},
		"hpcg":   {"threads", "verify"},
		"app":    {"app", "seed"},
	}
	var names []string
	for _, c := range subcommands {
		names = append(names, c.name)
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		c.bind(fs)
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
		if !reflect.DeepEqual(got, want[c.name]) {
			t.Errorf("%s declares flags %v, want %v", c.name, got, want[c.name])
		}
		if err := run([]string{c.name, "-h"}); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("run(%s -h) = %v, want flag.ErrHelp", c.name, err)
		}
	}
	if order := []string{"fpu", "stream", "net", "hpl", "hpcg", "app"}; !reflect.DeepEqual(names, order) {
		t.Errorf("subcommands = %v, want %v", names, order)
	}
	if err := run([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("run(-h) = %v, want flag.ErrHelp", err)
	}
}

// TestSchemaFlagsFollowRegistry pins the subcommands' schema-backed flags
// to the registry: each takes its name, usage and default from the kind's
// experiment.Field, and that default is the value clusterd normalises a
// bare spec to, so a subcommand without flags runs the daemon's defaults.
func TestSchemaFlagsFollowRegistry(t *testing.T) {
	cases := []struct {
		sub, field string
		normalised func(experiment.Spec) any // nil: the daemon requires the field
	}{
		{"fpu", "iters", func(s experiment.Spec) any { return s.Iters }},
		{"net", "size_bytes", func(s experiment.Spec) any { return s.SizeBytes }},
		{"net", "seed", func(s experiment.Spec) any { return s.Seed }},
		{"app", "app", nil},
		{"app", "seed", func(s experiment.Spec) any { return s.Seed }},
	}
	for _, tc := range cases {
		def, _ := experiment.Lookup(tc.sub)
		fields := slices.Concat(def.Fields, experiment.SharedFields())
		f := fields[slices.IndexFunc(fields, func(f experiment.Field) bool { return f.Name == tc.field })]
		c := subcommands[slices.IndexFunc(subcommands, func(c subcommand) bool { return c.name == tc.sub })]
		fs := flag.NewFlagSet(tc.sub, flag.ContinueOnError)
		c.bind(fs)
		fl := fs.Lookup(f.FlagName())
		if fl == nil {
			t.Errorf("%s: no -%s flag for schema field %s", tc.sub, f.FlagName(), tc.field)
			continue
		}
		if !strings.HasPrefix(fl.Usage, f.Usage) {
			t.Errorf("%s -%s usage %q, schema says %q", tc.sub, fl.Name, fl.Usage, f.Usage)
		}
		if fl.DefValue != f.Default {
			t.Errorf("%s -%s default %q, schema says %q", tc.sub, fl.Name, fl.DefValue, f.Default)
		}
		if tc.normalised == nil {
			continue
		}
		spec := experiment.Spec{Kind: tc.sub}
		if tc.sub == experiment.KindApp {
			spec.App = "alya"
		}
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(tc.normalised(norm)); got != fl.DefValue {
			t.Errorf("%s -%s default %s, but clusterd normalises a bare spec to %s", tc.sub, fl.Name, fl.DefValue, got)
		}
	}
}

// TestRunUnknownToolAndBadFlag pins the exit codes: an unknown
// subcommand, an unknown flag or a stray argument is a usage error (2)
// whose message names the valid subcommands or the bad flag, -h is not
// an error (0), and a run that fails exits 1. A -table or -figure the
// paper has no artefact for, or the two set together, fails the run
// before anything is printed. So does a flag the chosen mode ignores:
// -spec without -kind, or -kind or -out beside another mode's flag; such
// a run writes nothing under -out either.
func TestRunUnknownToolAndBadFlag(t *testing.T) {
	out := t.TempDir()
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"bogus"}, 2, "fpu|stream|net|hpl|hpcg|app"},
		{[]string{"-table", "4", "extra"}, 2, `unexpected argument "extra"`},
		{[]string{"hpl", "-nodes", "64"}, 2, "-nodes"},
		{[]string{"net", "extra"}, 2, `unexpected argument "extra"`},
		{[]string{"-definitely-not-a-flag"}, 2, "-definitely-not-a-flag"},
		{[]string{"-table", "-1"}, 1, "no table -1 (valid: 1..4)"},
		{[]string{"-table", "5"}, 1, "no table 5 (valid: 1..4)"},
		{[]string{"-figure", "-2"}, 1, "no figure -2 (valid: 1..16)"},
		{[]string{"-figure", "17"}, 1, "no figure 17 (valid: 1..16)"},
		{[]string{"-table", "2", "-figure", "5"}, 1, "table 2 and figure 5 both selected"},
		{[]string{"-table", "-1", "-figure", "-2"}, 1, "table -1 and figure -2 both selected"},
		{[]string{"-spec", `{"iters":3}`}, 1, "-spec set without -kind"},
		{[]string{"-kind", "", "-spec", `{"iters":3}`}, 1, "-spec set without -kind"},
		{[]string{"-kind", "fpu", "-out", out}, 1, "-kind and -out both set"},
		{[]string{"-kind", "fpu", "-table", "9"}, 1, "-kind and -table both set"},
		{[]string{"-kind", "fpu", "-figure", "3"}, 1, "-kind and -figure both set"},
		{[]string{"-kind", "fpu", "-csv"}, 1, "-kind and -csv both set"},
		{[]string{"-out", out, "-table", "9", "-figure", "3", "-csv"}, 1, "-out and -table both set"},
		{[]string{"-out", out, "-figure", "3"}, 1, "-out and -figure both set"},
		{[]string{"-out", out, "-csv"}, 1, "-out and -csv both set"},
	} {
		var code int
		var stdout string
		msg := captureStderr(t, func() { stdout = redirect(t, &os.Stdout, func() { code = Main(tc.args) }) })
		if code != tc.code || !strings.Contains(msg, tc.want) {
			t.Errorf("clustereval %v: exit %d, stderr %q; want exit %d naming %q", tc.args, code, msg, tc.code, tc.want)
		}
		if stdout != "" {
			t.Errorf("clustereval %v printed %d bytes on stdout before failing", tc.args, len(stdout))
		}
	}
	if code := Main([]string{"net", "-h"}); code != 0 {
		t.Errorf("clustereval net -h: exit %d, want 0", code)
	}
	if code := Main([]string{"fpu", "-iters", "0"}); code != 1 {
		t.Errorf("clustereval fpu -iters 0: exit %d, want 1", code)
	}
	if files, err := os.ReadDir(out); err != nil || len(files) > 0 {
		t.Errorf("refused runs left %d files under -out (%v)", len(files), err)
	}
	// The profile flags are read in every mode.
	prof := []string{"-kind", "fpu", "-spec", `{"iters":200}`, "-cpuprofile", filepath.Join(t.TempDir(), "cpu.prof")}
	var code int
	redirect(t, &os.Stdout, func() { code = Main(prof) })
	if code != 0 {
		t.Errorf("clustereval %v: exit %d, want 0", prof, code)
	}
}

// TestRunKindReachesEveryKind is the registry-completeness half of the
// CLI contract: every registered kind must be runnable from the
// clustereval binary's -kind mode and print a well-formed JSON result.
func TestRunKindReachesEveryKind(t *testing.T) {
	params := map[string]string{
		experiment.KindStream:       `{"ranks":4}`,
		experiment.KindHybridStream: ``,
		experiment.KindFPU:          `{"iters":200}`,
		experiment.KindNet:          `{"size_bytes":1024,"iters":8}`,
		experiment.KindHPL:          `{"nodes":2}`,
		experiment.KindHPCG:         `{"nodes":2}`,
		experiment.KindApp:          `{"app":"alya"}`,
	}
	for _, kind := range experiment.Kinds() {
		t.Run(kind, func(t *testing.T) {
			p, ok := params[kind]
			if !ok {
				t.Fatalf("kind %q added to the registry without a -kind reachability case", kind)
			}
			var sb strings.Builder
			if err := RunKind(context.Background(), kind, p, &sb); err != nil {
				t.Fatalf("RunKind: %v", err)
			}
			out := sb.String()
			if !strings.Contains(out, "cache key ") {
				t.Errorf("output missing cache key line:\n%s", out)
			}
			// The JSON body follows the two comment lines.
			idx := strings.Index(out, "{")
			if idx < 0 {
				t.Fatalf("no JSON in output:\n%s", out)
			}
			var res experiment.Result
			if err := json.Unmarshal([]byte(out[idx:]), &res); err != nil {
				t.Fatalf("result does not decode: %v\n%s", err, out)
			}
			if res.Kind != kind || res.Summary == "" {
				t.Errorf("result kind %q / summary %q", res.Kind, res.Summary)
			}
		})
	}

	if err := RunKind(context.Background(), "nosuch", "", io.Discard); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := RunKind(context.Background(), experiment.KindHPL, `{"bogus":1}`, io.Discard); err == nil {
		t.Error("unknown -spec field accepted")
	}
}
