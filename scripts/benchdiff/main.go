// Command benchdiff compares two `go test -bench -benchmem` outputs taken
// on the same machine: the base (a parent commit) and the change.
//
//	go run ./scripts/benchdiff base.txt head.txt
//
// A file may hold several lines per benchmark (rounds or -count); each
// side is reduced to its per-benchmark medians of ns/op and allocs/op. A
// benchmark regresses when the change's median exceeds the base's by
// more than 10% and by more than an absolute floor, so a one-alloc or
// sub-microsecond wobble on a tiny benchmark does not trip it. Every
// median gap is printed. The exit status is 1 on a regression, and also
// when the two files share no benchmark, since a gate that compares
// nothing proves nothing; a benchmark on one side only is listed but
// does not fail the run. `make benchdiff-engine` drives it.
package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// Regression thresholds: relative slack for noise, and absolute floors so
// tiny medians (a 4-alloc benchmark, a 600 ns benchmark) need a real
// move, not a rounding wobble, to trip.
const (
	relSlack    = 0.10
	nsFloor     = 100.0
	allocsFloor = 2.0
)

// samples holds one benchmark's measurements across repeated lines.
type samples struct{ ns, allocs []float64 }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run compares the two files named by args and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff base.txt head.txt")
		return 2
	}
	var sides [2]map[string]*samples
	for i, path := range args {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 1
		}
		sides[i], err = parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %s: %v\n", path, err)
			return 1
		}
	}
	regressions, err := compare(sides[0], sides[1], stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 1
	}
	if len(regressions) > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d regression(s) beyond %.0f%% plus the floor:\n", len(regressions), 100*relSlack)
		for _, r := range regressions {
			fmt.Fprintln(stderr, "  "+r)
		}
		return 1
	}
	return 0
}

// benchLine matches a `go test -bench` result line, e.g.
//
//	BenchmarkDES_SpawnReuse-8   2905   412345 ns/op   264648 B/op   1685 allocs/op
//
// The -N GOMAXPROCS suffix is stripped.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parse collects every benchmark result line of a `go test -bench` output
// that reports ns/op.
func parse(r io.Reader) (map[string]*samples, error) {
	res := map[string]*samples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, allocs := -1.0, -1.0
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				ns = v
			case "allocs/op":
				allocs = v
			}
		}
		if ns < 0 {
			continue
		}
		s := res[m[1]]
		if s == nil {
			s = &samples{}
			res[m[1]] = s
		}
		s.ns = append(s.ns, ns)
		if allocs >= 0 { // absent without -benchmem
			s.allocs = append(s.allocs, allocs)
		}
	}
	return res, sc.Err()
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or -1 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return -1
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// regressed reports whether got exceeds want by the relative slack plus
// the absolute floor.
func regressed(want, got, floor float64) bool {
	return got > want*(1+relSlack) && got-want > floor
}

// gap formats the relative change from want to got.
func gap(want, got float64) string {
	if want <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(got-want)/want)
}

// compare prints the median table of every benchmark in base or head to
// out and returns one line per regressed metric. It fails when the two
// sides share no benchmark.
func compare(base, head map[string]*samples, out io.Writer) ([]string, error) {
	var names []string
	for name := range base {
		names = append(names, name)
	}
	for name := range head {
		if base[name] == nil {
			names = append(names, name)
		}
	}
	slices.Sort(names)

	fmt.Fprintf(out, "%-36s %12s %12s %8s %10s %10s %8s\n",
		"benchmark (medians)", "base ns/op", "head ns/op", "gap", "base alloc", "head alloc", "gap")
	var regressions []string
	shared := 0
	for _, name := range names {
		b, h := base[name], head[name]
		if b == nil || h == nil {
			side := "base"
			if b == nil {
				side = "head"
			}
			fmt.Fprintf(out, "%-36s only in %s, not compared\n", name, side)
			continue
		}
		shared++
		bn, hn := median(b.ns), median(h.ns)
		ba, ha := median(b.allocs), median(h.allocs)
		allocGap := "n/a"
		if ba >= 0 && ha >= 0 {
			allocGap = gap(ba, ha)
		}
		fmt.Fprintf(out, "%-36s %12.0f %12.0f %8s %10.0f %10.0f %8s\n", name, bn, hn, gap(bn, hn), ba, ha, allocGap)
		if regressed(bn, hn, nsFloor) {
			regressions = append(regressions, fmt.Sprintf("%s: ns/op %.0f -> %.0f (%s)", name, bn, hn, gap(bn, hn)))
		}
		if ba >= 0 && ha >= 0 && regressed(ba, ha, allocsFloor) {
			regressions = append(regressions, fmt.Sprintf("%s: allocs/op %.0f -> %.0f (%s)", name, ba, ha, allocGap))
		}
	}
	if shared == 0 {
		return nil, errors.New("base and head share no benchmark: nothing was compared")
	}
	fmt.Fprintf(out, "benchdiff: %d benchmark(s) compared, %d regressed metric(s)\n", shared, len(regressions))
	return regressions, nil
}
