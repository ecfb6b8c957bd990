package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
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
// an error (0), and a run that fails exits 1.
func TestRunUnknownToolAndBadFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"bogus"}, "fpu|stream|net|hpl|hpcg|app"},
		{[]string{"-table", "4", "extra"}, `unexpected argument "extra"`},
		{[]string{"hpl", "-nodes", "64"}, "-nodes"},
		{[]string{"net", "extra"}, `unexpected argument "extra"`},
		{[]string{"-definitely-not-a-flag"}, "-definitely-not-a-flag"},
	} {
		var code int
		msg := captureStderr(t, func() { code = Main(tc.args) })
		if code != 2 || !strings.Contains(msg, tc.want) {
			t.Errorf("clustereval %v: exit %d, stderr %q; want exit 2 naming %q", tc.args, code, msg, tc.want)
		}
	}
	if code := Main([]string{"net", "-h"}); code != 0 {
		t.Errorf("clustereval net -h: exit %d, want 0", code)
	}
	if code := Main([]string{"fpu", "-iters", "0"}); code != 1 {
		t.Errorf("clustereval fpu -iters 0: exit %d, want 1", code)
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
