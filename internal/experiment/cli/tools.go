package cli

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"clustereval/internal/apps/alya"
	"clustereval/internal/apps/scaling"
	"clustereval/internal/bench/fpu"
	"clustereval/internal/bench/osu"
	"clustereval/internal/bench/stream"
	"clustereval/internal/experiment"
	"clustereval/internal/figures"
	"clustereval/internal/hpcg"
	"clustereval/internal/hpl"
	"clustereval/internal/interconnect"
	"clustereval/internal/machine"
	"clustereval/internal/omp"
	"clustereval/internal/report"
	"clustereval/internal/topology"
	"clustereval/internal/units"
)

// subcommand is one `clustereval <name>` mode. bind declares the flags
// its action reads on fs and returns the action.
type subcommand struct {
	name string
	bind func(fs *flag.FlagSet) func() error
}

// subcommands are clustereval's per-kind experiments, in paper order,
// each named after its registry kind.
var subcommands = []subcommand{
	{experiment.KindFPU, func(fs *flag.FlagSet) func() error {
		var iters int
		schemaVar(fs, &iters, experiment.KindFPU, "iters")
		variability := fs.Bool("variability", false, "also run the within-node and across-node variability sweeps")
		return func() error { return FPUBench(iters, *variability) }
	}},
	{experiment.KindStream, func(fs *flag.FlagSet) func() error {
		verify := fs.Int("verify", 0, "run the real kernels over N elements and validate")
		threads := fs.Int("threads", 8, "threads for -verify")
		return func() error { return StreamBench(*verify, *threads) }
	}},
	{experiment.KindNet, func(fs *flag.FlagSet) func() error {
		var size int64
		var seed uint64
		schemaVar(fs, &size, experiment.KindNet, "size_bytes")
		schemaVar(fs, &seed, experiment.KindNet, "seed")
		des := fs.Bool("des", false, "also measure one pair through the DES-backed MPI runtime")
		return func() error { return NetBench(units.Bytes(size), *des, seed) }
	}},
	{experiment.KindHPL, func(fs *flag.FlagSet) func() error {
		verify := fs.Int("verify", 0, "factorize a real NxN system and check the HPL residual")
		nb := fs.Int("nb", 64, "block size for -verify")
		threads := fs.Int("threads", 8, "worker threads for -verify")
		return func() error { return HPLBench(*verify, *nb, *threads) }
	}},
	{experiment.KindHPCG, func(fs *flag.FlagSet) func() error {
		verify := fs.Int("verify", 0, "solve a real NxNxN HPCG system and report convergence")
		threads := fs.Int("threads", 8, "worker threads for -verify")
		return func() error { return HPCGBench(*verify, *threads) }
	}},
	{experiment.KindApp, func(fs *flag.FlagSet) func() error {
		var app string
		var seed uint64
		schemaVar(fs, &app, experiment.KindApp, "app")
		schemaVar(fs, &seed, experiment.KindApp, "seed")
		return func() error { return AppBench(app, seed) }
	}},
}

// StreamBench runs the STREAM experiments (paper Section III-B): the
// Fig. 2 OpenMP thread sweep, the Fig. 3 hybrid MPI+OpenMP sweep, and —
// with verify > 0 — a real concurrent execution of the four kernels
// validated exactly as stream.c validates them.
func StreamBench(verify, threads int) error {
	if verify > 0 {
		team, err := omp.NewTeam(machine.CTEArm().Node, threads, omp.Spread)
		if err != nil {
			return err
		}
		arr, err := stream.NewArrays(verify)
		if err != nil {
			return err
		}
		const iters = 10
		for i := 0; i < iters; i++ {
			stream.RunIteration(team, arr)
		}
		if err := stream.Validate(arr, iters); err != nil {
			return err
		}
		fmt.Printf("real STREAM kernels: %d elements x %d iterations on %d threads validated\n",
			verify, iters, threads)
		return nil
	}

	p := figures.Default()
	plot, _, err := p.Figure2()
	if err != nil {
		return err
	}
	if err := plot.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	t, _, err := p.Figure3()
	if err != nil {
		return err
	}
	return t.Render(os.Stdout)
}

// FPUBench runs the FPU µKernel experiment (paper Section III-A, Fig. 1):
// six scalar/vector x half/single/double variants on one core of each
// machine, plus — with variability — the paper's sweeps across cores and
// nodes.
func FPUBench(iters int, variability bool) error {
	machines := []machine.Machine{machine.CTEArm(), machine.MareNostrum4()}
	bars, err := fpu.Figure1(machines, iters)
	if err != nil {
		return err
	}
	if err := figures.Figure1Table(bars).Render(os.Stdout); err != nil {
		return err
	}
	// Checksums prove real arithmetic ran.
	fmt.Println()
	for _, b := range bars {
		if b.Supported {
			fmt.Printf("checksum %-14s %-14s %.6g\n", b.Variant.Name(), b.Machine, b.Checksum)
		}
	}

	if variability {
		fmt.Println()
		for _, m := range machines {
			cv, err := fpu.NodeVariability(m, iters, 1)
			if err != nil {
				return err
			}
			fmt.Printf("%-16s within-node variability: %.3f%%\n", m.Name, 100*cv)
			cv, err = fpu.ClusterVariability(m, min(m.Nodes, 192), iters, 1)
			if err != nil {
				return err
			}
			fmt.Printf("%-16s across-node variability: %.3f%%\n", m.Name, 100*cv)
		}
	}
	return nil
}

// NetBench runs the network experiments (paper Section III-C): the Fig. 4
// all-pairs bandwidth heatmap with degraded-node detection, the Fig. 5
// bandwidth distribution, and — with des — a real Sendrecv loop through
// the discrete-event MPI runtime for one node pair.
func NetBench(size units.Bytes, des bool, seed uint64) error {
	p := figures.WithSeed(seed)
	hm, raw, err := p.Figure4(size)
	if err != nil {
		return err
	}
	if err := hm.Render(os.Stdout); err != nil {
		return err
	}
	for _, d := range raw.DegradedReceivers(0.5) {
		fmt.Printf("degraded receiver: node %d (%s): recv %v vs send %v\n",
			d, topology.TofuNodeName(d), raw.MeanAsReceiver(d), raw.MeanAsSender(d))
	}
	fmt.Println()

	t, dist, err := p.Figure5()
	if err != nil {
		return err
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	bimodal := dist.BimodalSizes(0.12)
	if len(bimodal) > 0 {
		fmt.Printf("bimodal sizes: %v .. %v\n", bimodal[0], bimodal[len(bimodal)-1])
	}

	if des {
		fab, err := interconnect.NewTofuD(p.Arm, 192)
		if err != nil {
			return err
		}
		for _, s := range []units.Bytes{256, 64 * 1024, 4 << 20} {
			bw, err := osu.MeasurePair(fab, 0, 100, s, 64)
			if err != nil {
				return err
			}
			fmt.Printf("DES Sendrecv loop, nodes 0->100, %10v: %v\n", s, bw)
		}
		// osu_latency-style ping-pong sweep through the DES runtime.
		sizes := []units.Bytes{0, 8, 256, 4096, 64 * 1024}
		pts, err := osu.MeasureLatency(fab, 0, 100, sizes, 50)
		if err != nil {
			return err
		}
		fmt.Println("\nDES ping-pong latency (half round trip), nodes 0->100:")
		for _, p := range pts {
			fmt.Printf("  %10v: %v\n", p.Size, p.Latency)
		}
	}
	return nil
}

// HPLBench runs the LINPACK experiment (paper Section IV-A, Fig. 6): the
// scalability model on both clusters, and — with verify > 0 — a real
// blocked LU factorization with the official HPL residual check.
func HPLBench(verify, nb, threads int) error {
	if verify > 0 {
		team, err := omp.NewTeam(machine.CTEArm().Node, threads, omp.Spread)
		if err != nil {
			return err
		}
		a := hpl.RandomSPDish(verify, 1)
		ones := make([]float64, verify)
		for i := range ones {
			ones[i] = 1
		}
		b := a.MatVec(ones)
		start := hostNow()
		lu, err := hpl.Factorize(a, nb, team)
		if err != nil {
			return err
		}
		elapsed := hostSince(start)
		x, err := lu.Solve(b)
		if err != nil {
			return err
		}
		resid := hpl.Residual(a, x, b)
		status := "PASSED"
		if resid > 16 {
			status = "FAILED"
		}
		rate := hpl.FlopCount(verify) / elapsed.Seconds() / 1e9
		fmt.Printf("N=%d nb=%d threads=%d: %.2f GFlop/s (host), residual %.3g -> %s\n",
			verify, nb, threads, rate, resid, status)
		if status == "FAILED" {
			return fmt.Errorf("HPL residual check failed")
		}
		return nil
	}

	p := figures.Default()
	plot, runs, err := p.Figure6()
	if err != nil {
		return err
	}
	if err := plot.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	for _, m := range []string{"CTE-Arm", "MareNostrum 4"} {
		for _, r := range runs[m] {
			fmt.Printf("%-16s nodes=%3d N=%8d P x Q=%2dx%-3d %12s  %5.1f%% of peak  (t=%s)\n",
				m, r.Nodes, r.N, r.P, r.Q, r.Perf.String(), r.PercentOfPeak, r.Time)
		}
	}
	return nil
}

// HPCGBench runs the HPCG experiment (paper Section IV-B, Fig. 7): the
// vanilla/optimized model on both clusters, and — with verify > 0 — a
// real multigrid-preconditioned CG solve on the 27-point stencil.
func HPCGBench(verify, threads int) error {
	if verify > 0 {
		team, err := omp.NewTeam(machine.CTEArm().Node, threads, omp.Spread)
		if err != nil {
			return err
		}
		prob, err := hpcg.NewProblem(verify, verify, verify)
		if err != nil {
			return err
		}
		mg, err := hpcg.NewMG(prob, 4)
		if err != nil {
			return err
		}
		b := make([]float64, prob.NRows)
		for i := range b {
			b[i] = 1
		}
		start := hostNow()
		_, res, err := hpcg.CG(prob, mg, team, b, 100, 1e-9)
		if err != nil {
			return err
		}
		elapsed := hostSince(start)
		fmt.Printf("grid %d^3 (%d rows, %d nonzeros), %d MG levels: converged=%v in %d iterations, %.3gs host time\n",
			verify, prob.NRows, prob.Nonzeros(), mg.Levels(), res.Converged, res.Iterations, elapsed.Seconds())
		for i, r := range res.Residuals {
			fmt.Printf("  iter %2d: ||r|| = %.3e\n", i+1, r)
		}
		if !res.Converged {
			return fmt.Errorf("CG did not converge")
		}
		return nil
	}

	p := figures.Default()
	t, _, err := p.Figure7()
	if err != nil {
		return err
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	params := hpcg.PaperParameters(machine.CTEArm())
	fmt.Printf("run parameters: nx=%d ny=%d nz=%d rt=%ds, %d ranks/node (MPI-only)\n",
		params.NX, params.NY, params.NZ, params.RuntimeSecs, params.RanksPerNode)
	envKeys := make([]string, 0, len(params.EnvVars))
	for k := range params.EnvVars {
		envKeys = append(envKeys, k)
	}
	sort.Strings(envKeys)
	for _, k := range envKeys {
		fmt.Printf("  %s=%s\n", k, params.EnvVars[k])
	}
	return nil
}

// AppBench runs the scientific-application experiments of Section V: one
// application per invocation (empty app = all of them), printing each
// scalability figure and the paper's headline comparisons. The menu and
// its order come from the experiment registry's application catalog — the
// same source the "app" job kind validates against.
func AppBench(app string, seed uint64) error {
	p := figures.WithSeed(seed)
	apps := map[string][]func() (*report.Plot, error){
		"alya":    {p.Figure8, p.Figure9, p.Figure10},
		"nemo":    {p.Figure11},
		"gromacs": {p.Figure12, p.Figure13},
		"openifs": {p.Figure14, p.Figure15},
		"wrf":     {p.Figure16},
	}
	order := experiment.AppNames()

	selected := order
	if app != "" {
		if _, ok := experiment.AppByName(app); !ok {
			return fmt.Errorf("unknown app %q (valid: %s)", app, strings.Join(order, " "))
		}
		selected = []string{app}
	}
	for _, name := range selected {
		for _, figure := range apps[name] {
			plot, err := figure()
			if err != nil {
				return err
			}
			if err := plot.Render(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
		if name == "alya" {
			if err := alyaHighlights(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// alyaHighlights prints the equivalence points the paper calls out: how
// many CTE-Arm nodes match 12 MareNostrum 4 nodes, per Alya phase.
func alyaHighlights(p figures.Pair) error {
	for _, ph := range []alya.Phase{alya.TimeStep, alya.Assembly, alya.Solver} {
		cte, err := alya.SweepOn(p.Arm, ph)
		if err != nil {
			return err
		}
		ref, err := alya.SweepOn(p.Ref, ph)
		if err != nil {
			return err
		}
		target, _ := ref[0].TimeAt(12)
		fmt.Printf("Alya: %d CTE-Arm nodes match 12 MareNostrum 4 nodes (%s)\n",
			scaling.MatchingNodes(cte[0], target), ph)
	}
	fmt.Println()
	return nil
}
