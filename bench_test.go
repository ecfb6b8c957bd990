package clustereval_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper. Each benchmark regenerates the artefact's data and reports the
// headline quantity the paper quotes as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation and prints the numbers to compare with
// EXPERIMENTS.md.

import (
	"testing"

	"clustereval/internal/apps/alya"
	"clustereval/internal/apps/gromacs"
	"clustereval/internal/apps/nemo"
	"clustereval/internal/apps/openifs"
	"clustereval/internal/apps/scaling"
	"clustereval/internal/apps/wrf"
	"clustereval/internal/bench/fpu"
	"clustereval/internal/bench/stream"
	"clustereval/internal/des"
	"clustereval/internal/figures"
	"clustereval/internal/hpcg"
	"clustereval/internal/hpl"
	"clustereval/internal/interconnect"
	"clustereval/internal/machine"
	"clustereval/internal/mpisim"
	"clustereval/internal/toolchain"
	"clustereval/internal/units"
)

func pairMachines() (machine.Machine, machine.Machine) {
	return machine.CTEArm(), machine.MareNostrum4()
}

// BenchmarkTable1_HardwareModel validates and re-derives the Table I
// hardware quantities.
func BenchmarkTable1_HardwareModel(b *testing.B) {
	arm, mn4 := pairMachines()
	for i := 0; i < b.N; i++ {
		for _, m := range []machine.Machine{arm, mn4} {
			if err := m.Validate(); err != nil {
				b.Fatal(err)
			}
			_ = m.Node.DoublePeak()
			_ = m.Node.MemoryPeak()
		}
	}
	b.ReportMetric(arm.Node.DoublePeak().Giga(), "CTE-GF/node")
	b.ReportMetric(mn4.Node.DoublePeak().Giga(), "MN4-GF/node")
}

// BenchmarkFig1_FPUKernel runs the six µKernel variants on both machines
// (real lane arithmetic + throughput model).
func BenchmarkFig1_FPUKernel(b *testing.B) {
	arm, mn4 := pairMachines()
	var bars []fpu.Bar
	for i := 0; i < b.N; i++ {
		var err error
		bars, err = fpu.Figure1([]machine.Machine{arm, mn4}, 2000)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, bar := range bars {
		if bar.Supported && bar.Variant.Name() == "vector-double" {
			name := "CTE-GF"
			if bar.Machine != "CTE-Arm" {
				name = "MN4-GF"
			}
			b.ReportMetric(bar.Sustained.Giga(), name)
		}
	}
}

// BenchmarkTable2_StreamBuilds compiles the four STREAM build
// configurations through the toolchain model.
func BenchmarkTable2_StreamBuilds(b *testing.B) {
	arm, mn4 := pairMachines()
	for i := 0; i < b.N; i++ {
		for _, c := range []struct {
			comp toolchain.Compiler
			m    machine.Machine
		}{
			{toolchain.StreamOpenMPArm(), arm},
			{toolchain.StreamHybridArm(), arm},
			{toolchain.StreamMN4(), mn4},
		} {
			if _, err := toolchain.Compile(c.comp, c.m, "STREAM"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig2_StreamOMP sweeps the OpenMP STREAM curve on both machines.
func BenchmarkFig2_StreamOMP(b *testing.B) {
	arm, mn4 := pairMachines()
	var sArm, sMN4 stream.Series
	for i := 0; i < b.N; i++ {
		var err error
		sArm, err = stream.Figure2(arm, toolchain.StreamOpenMPArm(), toolchain.C, 610e6)
		if err != nil {
			b.Fatal(err)
		}
		sMN4, err = stream.Figure2(mn4, toolchain.StreamMN4(), toolchain.C, 400e6)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sArm.Best.Bandwidth.GB(), "CTE-GB/s")   // paper: 292.0
	b.ReportMetric(sMN4.Best.Bandwidth.GB(), "MN4-GB/s")   // paper: 201.2
	b.ReportMetric(float64(sArm.Best.Threads), "CTE-best") // paper: 24
}

// BenchmarkFig3_StreamHybrid runs the hybrid MPI+OpenMP Triad.
func BenchmarkFig3_StreamHybrid(b *testing.B) {
	arm, _ := pairMachines()
	var f, c stream.HybridSeries
	for i := 0; i < b.N; i++ {
		var err error
		f, err = stream.Figure3(arm, toolchain.StreamHybridArm(), toolchain.Fortran)
		if err != nil {
			b.Fatal(err)
		}
		c, err = stream.Figure3(arm, toolchain.StreamHybridArm(), toolchain.C)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f.Best.Bandwidth.GB(), "Fortran-GB/s") // paper: 862.6
	b.ReportMetric(c.Best.Bandwidth.GB(), "C-GB/s")       // paper: 421.1
}

// BenchmarkFig6_Linpack runs the HPL scalability sweep on both machines.
func BenchmarkFig6_Linpack(b *testing.B) {
	arm, mn4 := pairMachines()
	var rArm, rMN4 hpl.Run
	for i := 0; i < b.N; i++ {
		runsA, err := hpl.Figure6(arm, 192)
		if err != nil {
			b.Fatal(err)
		}
		runsM, err := hpl.Figure6(mn4, 192)
		if err != nil {
			b.Fatal(err)
		}
		rArm, rMN4 = runsA[len(runsA)-1], runsM[len(runsM)-1]
	}
	b.ReportMetric(rArm.PercentOfPeak, "CTE-%peak") // paper: 85
	b.ReportMetric(rMN4.PercentOfPeak, "MN4-%peak") // paper: 63
}

// BenchmarkFig6_RealLU factorizes a real matrix per iteration with the HPL
// residual check — the correctness backbone behind Fig. 6.
func BenchmarkFig6_RealLU(b *testing.B) {
	a := hpl.RandomSPDish(192, 7)
	ones := make([]float64, 192)
	for i := range ones {
		ones[i] = 1
	}
	rhs := a.MatVec(ones)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lu, err := hpl.Factorize(a, 48, nil)
		if err != nil {
			b.Fatal(err)
		}
		x, err := lu.Solve(rhs)
		if err != nil {
			b.Fatal(err)
		}
		if r := hpl.Residual(a, x, rhs); r > 16 {
			b.Fatalf("residual %v", r)
		}
	}
	b.ReportMetric(hpl.FlopCount(192)*float64(b.N)/b.Elapsed().Seconds()/1e9, "host-GFlop/s")
}

// BenchmarkFig6_DistributedLU runs the block-column-cyclic LU over the
// simulated MPI runtime (panel broadcasts, distributed swaps and updates)
// and verifies the factors against the HPL residual criterion.
func BenchmarkFig6_DistributedLU(b *testing.B) {
	arm, _ := pairMachines()
	fab, err := interconnect.NewTofuD(arm, 12)
	if err != nil {
		b.Fatal(err)
	}
	a := hpl.RandomSPDish(32, 3)
	ones := make([]float64, 32)
	for i := range ones {
		ones[i] = 1
	}
	rhs := a.MatVec(ones)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := mpisim.NewWorld(fab, 4, 4)
		if err != nil {
			b.Fatal(err)
		}
		lu, _, err := hpl.DistFactorize(w, a, 8)
		if err != nil {
			b.Fatal(err)
		}
		x, err := lu.Solve(rhs)
		if err != nil {
			b.Fatal(err)
		}
		if r := hpl.Residual(a, x, rhs); r > 16 {
			b.Fatalf("residual %v", r)
		}
	}
}

// BenchmarkFig7_HPCG produces the eight bars of Fig. 7.
func BenchmarkFig7_HPCG(b *testing.B) {
	arm, mn4 := pairMachines()
	var runs []hpcg.Run
	for i := 0; i < b.N; i++ {
		var err error
		runs, err = hpcg.Figure7(arm, mn4)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range runs {
		if r.Version == hpcg.Optimized && r.Machine == "CTE-Arm" && r.Nodes == 1 {
			b.ReportMetric(r.PercentOfPeak, "CTE-%peak") // paper: 2.91
		}
	}
}

// BenchmarkFig7_RealCG solves the real 27-point system with the MG
// preconditioner per iteration.
func BenchmarkFig7_RealCG(b *testing.B) {
	prob, err := hpcg.NewProblem(16, 16, 16)
	if err != nil {
		b.Fatal(err)
	}
	mg, err := hpcg.NewMG(prob, 3)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, prob.NRows)
	for i := range rhs {
		rhs[i] = 1
	}
	b.ResetTimer()
	var iters int
	for i := 0; i < b.N; i++ {
		_, res, err := hpcg.CG(prob, mg, nil, rhs, 50, 1e-9)
		if err != nil || !res.Converged {
			b.Fatalf("cg: %v converged=%v", err, res.Converged)
		}
		iters = res.Iterations
	}
	b.ReportMetric(float64(iters), "cg-iters")
}

// BenchmarkFig7_DistributedCG runs the MPI-decomposed CG (1-D slabs, halo
// exchanges, global reductions) through the simulated runtime — the
// communication structure of the paper's MPI-only HPCG runs.
func BenchmarkFig7_DistributedCG(b *testing.B) {
	arm, _ := pairMachines()
	fab, err := interconnect.NewTofuD(arm, 12)
	if err != nil {
		b.Fatal(err)
	}
	const nx, ny, nz = 4, 4, 8
	rhs := make([]float64, nx*ny*nz)
	for i := range rhs {
		rhs[i] = 1
	}
	b.ResetTimer()
	var iters int
	for i := 0; i < b.N; i++ {
		w, err := mpisim.NewWorld(fab, 4, 4)
		if err != nil {
			b.Fatal(err)
		}
		_, res, err := hpcg.DistCG(w, nx, ny, nz, rhs, 200, 1e-8)
		if err != nil || !res.Converged {
			b.Fatalf("err=%v converged=%v", err, res.Converged)
		}
		iters = res.Iterations
	}
	b.ReportMetric(float64(iters), "cg-iters")
}

// BenchmarkTable3_AppBuilds compiles every Table III build through the
// toolchain model, including the documented Fujitsu failures.
func BenchmarkTable3_AppBuilds(b *testing.B) {
	arm, _ := pairMachines()
	for i := 0; i < b.N; i++ {
		for _, bc := range toolchain.AppBuilds() {
			m := machine.CTEArm()
			if bc.Machine != m.Name {
				m = machine.MareNostrum4()
			}
			if _, err := toolchain.Compile(bc.Compiler, m, bc.App); err != nil {
				b.Fatal(err)
			}
		}
		// The Fujitsu failures are part of the table's story.
		if _, err := toolchain.Compile(toolchain.FujitsuArm("1.2.26b"), arm, "Alya"); err == nil {
			b.Fatal("Fujitsu Alya build should fail")
		}
	}
}

// BenchmarkFig8_Alya regenerates the Alya time-step scalability and
// reports the 12-16 node slowdown (paper: 3.4x).
func BenchmarkFig8_Alya(b *testing.B) {
	arm, mn4 := pairMachines()
	var slowdown float64
	for i := 0; i < b.N; i++ {
		cte, ref, err := alya.Figure8(arm, mn4)
		if err != nil {
			b.Fatal(err)
		}
		slowdown, err = scaling.Slowdown(cte, ref, 12)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(slowdown, "slowdown@12") // paper: 3.4
}

// BenchmarkFig9_AlyaAssembly reports the Assembly-phase gap (paper: 4.96x).
func BenchmarkFig9_AlyaAssembly(b *testing.B) {
	arm, mn4 := pairMachines()
	var slowdown float64
	var crossover int
	for i := 0; i < b.N; i++ {
		cte, ref, err := alya.Figure9(arm, mn4)
		if err != nil {
			b.Fatal(err)
		}
		slowdown, err = scaling.Slowdown(cte, ref, 12)
		if err != nil {
			b.Fatal(err)
		}
		target, _ := ref.TimeAt(12)
		crossover = scaling.MatchingNodes(cte, target)
	}
	b.ReportMetric(slowdown, "slowdown@12")      // paper: 4.96
	b.ReportMetric(float64(crossover), "xnodes") // paper: 62
}

// BenchmarkFig10_AlyaSolver reports the Solver-phase gap (paper: 1.79x).
func BenchmarkFig10_AlyaSolver(b *testing.B) {
	arm, mn4 := pairMachines()
	var slowdown float64
	var crossover int
	for i := 0; i < b.N; i++ {
		cte, ref, err := alya.Figure10(arm, mn4)
		if err != nil {
			b.Fatal(err)
		}
		slowdown, err = scaling.Slowdown(cte, ref, 12)
		if err != nil {
			b.Fatal(err)
		}
		target, _ := ref.TimeAt(12)
		crossover = scaling.MatchingNodes(cte, target)
	}
	b.ReportMetric(slowdown, "slowdown@12")      // paper: 1.79
	b.ReportMetric(float64(crossover), "xnodes") // paper: 22
}

// BenchmarkFig11_NEMO regenerates the NEMO scalability (paper: MN4
// 1.70-1.79x faster; flattens around 128 CTE nodes).
func BenchmarkFig11_NEMO(b *testing.B) {
	arm, mn4 := pairMachines()
	var slowdown float64
	for i := 0; i < b.N; i++ {
		cte, ref, err := nemo.Figure11(arm, mn4)
		if err != nil {
			b.Fatal(err)
		}
		slowdown, err = scaling.Slowdown(cte, ref, 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(slowdown, "slowdown@16") // paper: ~1.79
}

// BenchmarkFig11_RealOcean steps the real distributed ocean proxy through
// the simulated MPI runtime per iteration.
func BenchmarkFig11_RealOcean(b *testing.B) {
	arm, _ := pairMachines()
	fab, err := interconnect.NewTofuD(arm, 12)
	if err != nil {
		b.Fatal(err)
	}
	f, err := nemo.NewField(48, 32)
	if err != nil {
		b.Fatal(err)
	}
	f.Set(24, 16, 1)
	p := nemo.Params{U: 0.5, V: 0.25, Kappa: 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := mpisim.NewWorld(fab, 6, 4)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := nemo.RunDistributed(w, f, p, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12_GromacsNode regenerates the single-node Gromacs study
// (paper: 3.48x at 6 cores, 3.10x full node).
func BenchmarkFig12_GromacsNode(b *testing.B) {
	arm, mn4 := pairMachines()
	ma, err := gromacs.NewModel(arm, gromacs.LignocelluloseRF())
	if err != nil {
		b.Fatal(err)
	}
	mm, err := gromacs.NewModel(mn4, gromacs.LignocelluloseRF())
	if err != nil {
		b.Fatal(err)
	}
	var r6, r48 float64
	for i := 0; i < b.N; i++ {
		l6 := gromacs.Layout{Nodes: 1, Ranks: 1, ThreadsPerRank: 6}
		l48 := gromacs.Layout{Nodes: 1, Ranks: 8, ThreadsPerRank: 6}
		ta6, err := ma.StepTime(l6)
		if err != nil {
			b.Fatal(err)
		}
		tm6, _ := mm.StepTime(l6)
		ta48, _ := ma.StepTime(l48)
		tm48, _ := mm.StepTime(l48)
		r6 = float64(ta6) / float64(tm6)
		r48 = float64(ta48) / float64(tm48)
	}
	b.ReportMetric(r6, "slowdown@6c")   // paper: 3.48
	b.ReportMetric(r48, "slowdown@48c") // paper: 3.10
}

// BenchmarkFig13_GromacsScale regenerates the multi-node study including
// the 16-rank anomaly.
func BenchmarkFig13_GromacsScale(b *testing.B) {
	arm, mn4 := pairMachines()
	var anomaly float64
	for i := 0; i < b.N; i++ {
		cte, _, err := gromacs.Figure13(arm, mn4)
		if err != nil {
			b.Fatal(err)
		}
		t2, _ := cte.TimeAt(2)
		t4, _ := cte.TimeAt(4)
		anomaly = float64(t2) / (2 * float64(t4)) // >1 marks the anomaly
	}
	b.ReportMetric(anomaly, "anomaly-ratio")
}

// BenchmarkFig12_RealMD steps the real Lennard-Jones engine per iteration.
func BenchmarkFig12_RealMD(b *testing.B) {
	s, err := gromacs.NewSystem(256, 0.5, 2.5, 42)
	if err != nil {
		b.Fatal(err)
	}
	s.ComputeForces()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(0.004)
	}
	b.ReportMetric(float64(s.N), "atoms")
}

// BenchmarkFig14_OpenIFSNode regenerates the single-node OpenIFS study
// (paper: 3.72x at 8 ranks, 3.28x full node).
func BenchmarkFig14_OpenIFSNode(b *testing.B) {
	arm, mn4 := pairMachines()
	ma, err := openifs.NewModel(arm, openifs.TL255L91())
	if err != nil {
		b.Fatal(err)
	}
	mm, err := openifs.NewModel(mn4, openifs.TL255L91())
	if err != nil {
		b.Fatal(err)
	}
	var r8, r48 float64
	for i := 0; i < b.N; i++ {
		ta8, err := ma.DayTime(1, 8)
		if err != nil {
			b.Fatal(err)
		}
		tm8, _ := mm.DayTime(1, 8)
		ta48, _ := ma.DayTime(1, 48)
		tm48, _ := mm.DayTime(1, 48)
		r8 = float64(ta8) / float64(tm8)
		r48 = float64(ta48) / float64(tm48)
	}
	b.ReportMetric(r8, "slowdown@8r")   // paper: 3.72
	b.ReportMetric(r48, "slowdown@48r") // paper: 3.28
}

// BenchmarkFig15_OpenIFSScale regenerates the multi-node OpenIFS study
// (paper: 3.55x at 32 nodes, 2.56x at 128).
func BenchmarkFig15_OpenIFSScale(b *testing.B) {
	arm, mn4 := pairMachines()
	var s32, s128 float64
	for i := 0; i < b.N; i++ {
		cte, ref, err := openifs.Figure15(arm, mn4)
		if err != nil {
			b.Fatal(err)
		}
		s32, err = scaling.Slowdown(cte, ref, 32)
		if err != nil {
			b.Fatal(err)
		}
		s128, err = scaling.Slowdown(cte, ref, 128)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(s32, "slowdown@32")   // paper: 3.55
	b.ReportMetric(s128, "slowdown@128") // paper: 2.56
}

// BenchmarkFig14_RealFFT runs the real spectral transform per iteration.
func BenchmarkFig14_RealFFT(b *testing.B) {
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(float64(i%17), float64(i%5))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := openifs.FFT(x); err != nil {
			b.Fatal(err)
		}
		if err := openifs.IFFT(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig16_WRF regenerates the WRF study (paper: 2.16x at 1 node,
// 2.23x at 64; IO on/off nearly identical).
func BenchmarkFig16_WRF(b *testing.B) {
	arm, mn4 := pairMachines()
	ma, err := wrf.NewModel(arm, wrf.Iberia4km())
	if err != nil {
		b.Fatal(err)
	}
	mm, err := wrf.NewModel(mn4, wrf.Iberia4km())
	if err != nil {
		b.Fatal(err)
	}
	var r1, r64, ioDelta float64
	for i := 0; i < b.N; i++ {
		ta1, err := ma.ElapsedTime(1, true)
		if err != nil {
			b.Fatal(err)
		}
		tm1, _ := mm.ElapsedTime(1, true)
		ta64, _ := ma.ElapsedTime(64, true)
		tm64, _ := mm.ElapsedTime(64, true)
		off64, _ := ma.ElapsedTime(64, false)
		r1 = float64(ta1) / float64(tm1)
		r64 = float64(ta64) / float64(tm64)
		ioDelta = (float64(ta64) - float64(off64)) / float64(off64)
	}
	b.ReportMetric(r1, "slowdown@1")   // paper: 2.16
	b.ReportMetric(r64, "slowdown@64") // paper: 2.23
	b.ReportMetric(100*ioDelta, "io-%")
}

// BenchmarkTable4_Speedups regenerates the full Table IV.
func BenchmarkTable4_Speedups(b *testing.B) {
	ev := figures.Default()
	var rows []figures.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = ev.TableIV()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.App == "LINPACK" {
			b.ReportMetric(r.Cells[0].Speedup, "linpack@1") // paper: 1.25
		}
		if r.App == "HPCG" {
			b.ReportMetric(r.Cells[0].Speedup, "hpcg@1") // paper: 2.50
		}
	}
}

// --- Engine-level benchmarks -----------------------------------------------
//
// The benchmarks below measure the simulator itself rather than the paper's
// artefacts: DES event churn, proc spawn/reuse, and mpisim collectives at
// two rank counts. scripts/benchdiff gates the BenchmarkDES_* and
// BenchmarkMPISim_* prefixes hard in CI (the paper-artefact benchmarks
// above stay advisory), so engine regressions fail the build.

// BenchmarkDES_EventChurn measures raw event throughput: a fixed process
// population doing nothing but quantized delays, so the cost is schedule,
// queue, and context-switch — the per-event floor under every simulation.
func BenchmarkDES_EventChurn(b *testing.B) {
	const procs = 64
	const delaysPerProc = 100
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := des.New()
		for p := 0; p < procs; p++ {
			phase := units.Seconds(float64(p%7) * 0.25)
			e.Spawn("churn", func(pr *des.Proc) {
				for d := 0; d < delaysPerProc; d++ {
					pr.Delay(1 + phase)
				}
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(procs*delaysPerProc), "events/run")
}

// BenchmarkDES_SpawnReuse measures spawn-heavy workloads: many short-lived
// processes per run, across many runs — the pattern mpisim produces when a
// World is reused, and the case the parked-worker pool exists for.
func BenchmarkDES_SpawnReuse(b *testing.B) {
	const procs = 256
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := des.New()
		for p := 0; p < procs; p++ {
			e.Spawn("ephemeral", func(pr *des.Proc) { pr.Delay(1) })
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAllreduce runs a 4-value Allreduce across the given rank count on
// the CTE-Arm fabric, reusing one World (and its DES engine) for all
// iterations exactly as the experiment kinds do.
func benchAllreduce(b *testing.B, ranks int) {
	arm, _ := pairMachines()
	fab, err := interconnect.NewTofuD(arm, arm.Nodes)
	if err != nil {
		b.Fatal(err)
	}
	w, err := mpisim.NewWorld(fab, ranks, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := w.Run(func(c *mpisim.Comm) {
			data := []float64{float64(c.Rank()), 1, 2, 3}
			c.Allreduce(data, mpisim.OpSum, 32)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMPISim_AllreduceRanks64 is the small-communicator collective.
func BenchmarkMPISim_AllreduceRanks64(b *testing.B) { benchAllreduce(b, 64) }

// BenchmarkMPISim_AllreduceRanks512 is the large-communicator collective:
// rank spawn cost and event-queue pressure dominate here.
func BenchmarkMPISim_AllreduceRanks512(b *testing.B) { benchAllreduce(b, 512) }
