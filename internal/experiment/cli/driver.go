// Package cli is the command-line layer behind cmd/clustereval and
// cmd/clusterd. clustereval prints the paper (Eval), exports it as CSV
// (ExportAll), runs one registry kind and prints its JSON result
// (RunKind), or runs one per-kind experiment as a subcommand:
// `clustereval fpu|stream|net|hpl|hpcg|app [flags]`. Each subcommand
// declares only the flags its action reads; those backed by the kind's
// registry schema (internal/experiment.Field) take their name, default
// and usage from it, so they agree with clusterd's /v1/kinds listing.
// clusterd's flags, validation and serve loop live in daemon.go.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"clustereval/internal/experiment"
)

// errUsage marks a command-line error whose message is already printed;
// Main exits 2 without repeating it.
var errUsage = errors.New("usage error")

// Main runs clustereval over args (os.Args[1:]) and returns its exit
// status: 0 on success or -h, 2 on a command-line error, 1 when the run
// fails.
func Main(args []string) int {
	switch err := run(args); {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	default:
		fmt.Fprintf(os.Stderr, "clustereval: %v\n", err)
		return 1
	}
}

// run dispatches args: a leading subcommand name runs that per-kind
// experiment, anything else is parsed as the paper's own flags. It is
// unexported deliberately: the cli package's Run-prefixed entry points
// are simulation surfaces under the ctxflow analyzer, and this is a
// flag-dispatch layer whose public face is Main.
func run(args []string) error {
	if len(args) > 0 {
		for _, c := range subcommands {
			if c.name == args[0] {
				fs := flag.NewFlagSet("clustereval "+c.name, flag.ContinueOnError)
				action := c.bind(fs)
				if err := parse(fs, args[1:]); err != nil {
					return err
				}
				return action()
			}
		}
	}

	fs := flag.NewFlagSet("clustereval", flag.ContinueOnError)
	table := fs.Int("table", 0, "render one table (1..4); 0 = all")
	figure := fs.Int("figure", 0, "render one figure (1..16); 0 = all")
	csv := fs.Bool("csv", false, "emit tables as CSV")
	out := fs.String("out", "", "write every table and figure as CSV files into this directory")
	kind := fs.String("kind", "", "run one experiment kind from the registry and print its result as JSON (see -spec)")
	spec := fs.String("spec", "", `JSON parameters for -kind, e.g. '{"app":"alya","nodes":32}'`)
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file after the run")
	fs.Usage = func() {
		names := make([]string, len(subcommands))
		for i, c := range subcommands {
			names[i] = c.name
		}
		fmt.Fprintf(fs.Output(), "Usage: clustereval [flags]\n       clustereval %s [flags]\n",
			strings.Join(names, "|"))
		fs.PrintDefaults()
	}
	if err := parse(fs, args); err != nil {
		return err
	}
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

// parse parses args into fs and refuses stray positional arguments. When
// it returns errUsage, the error and fs's usage are already printed.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(fs.Output(), "%s: unexpected argument %q\n", fs.Name(), fs.Arg(0))
		fs.Usage()
		return errUsage
	}
	return nil
}

// schemaVar declares p, an *int, *int64, *uint64 or *string, on fs as
// the named field of kind's registry schema, the shared seed field
// included. The flag's name, default and usage all come from the schema.
// A field the schema lacks is a programming error and panics.
func schemaVar(fs *flag.FlagSet, p any, kind, field string) {
	def, ok := experiment.Lookup(kind)
	if !ok {
		panic("cli: unregistered kind " + kind)
	}
	fields := slices.Concat(def.Fields, experiment.SharedFields())
	i := slices.IndexFunc(fields, func(f experiment.Field) bool { return f.Name == field })
	if i < 0 {
		panic("cli: kind " + kind + " has no schema field " + field)
	}
	f := fields[i]
	usage := fieldUsage(f)
	switch p := p.(type) {
	case *int:
		fs.IntVar(p, f.FlagName(), 0, usage)
	case *int64:
		fs.Int64Var(p, f.FlagName(), 0, usage)
	case *uint64:
		fs.Uint64Var(p, f.FlagName(), 0, usage)
	case *string:
		fs.StringVar(p, f.FlagName(), "", usage)
	default:
		panic(fmt.Sprintf("cli: schema flag -%s bound to unsupported %T", f.FlagName(), p))
	}
	// The flag parses the schema default itself, so -h prints it too.
	fl := fs.Lookup(f.FlagName())
	if f.Default != "" {
		if err := fl.Value.Set(f.Default); err != nil {
			panic("cli: schema default of " + field + ": " + err.Error())
		}
	}
	fl.DefValue = fl.Value.String()
}
