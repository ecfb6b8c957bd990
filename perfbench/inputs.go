package main

import (
	"clustereval/internal/experiment"
	"clustereval/internal/loadgen"
	"clustereval/internal/machine"
	"clustereval/internal/xrand"
)

// uniqueSpec is entry i of the stream of cache-missing clusterd jobs drawn
// from seed, the inputs of the experiment, mpisim and journal probes:
// seven in ten are OSU-style transfers between random CTE-Arm nodes
// (16..128 iterations of 1 KiB..1 MiB), the rest STREAM, HPL and HPCG
// runs. Each spec carries its own interconnect noise seed, a bijection of
// (seed, i), so no two entries of one stream share a cache key.
func uniqueSpec(seed uint64, i int) experiment.Spec {
	arm := machine.CTEArm()
	r := xrand.New(xrand.MixN(seed, 0xc01d, uint64(i)))
	s := experiment.Spec{Seed: xrand.Mix64(seed<<32 ^ uint64(i+1))}
	switch k := r.Intn(10); {
	case k < 7:
		s.Kind = experiment.KindNet
		s.Iters = 16 + r.Intn(113)
		s.SizeBytes = 1024 << uint(r.Intn(11))
		s.SrcNode = r.Intn(arm.Nodes)
		s.DstNode = (s.SrcNode + 1 + r.Intn(arm.Nodes-1)) % arm.Nodes
	case k == 7:
		s.Kind = experiment.KindStream
		s.Language = []string{"c", "fortran"}[r.Intn(2)]
		s.Ranks = 1 + r.Intn(arm.Node.Cores())
	case k == 8:
		s.Kind = experiment.KindHPL
		s.Nodes = 1 + r.Intn(arm.Nodes)
	default:
		s.Kind = experiment.KindHPCG
		s.Nodes = 1 + r.Intn(arm.Nodes)
		s.Version = []string{"vanilla", "optimized"}[r.Intn(2)]
	}
	return s
}

// hotReplayLen is how many submissions of the loadgen stream fleet-hot
// replays in a loop; they draw from the generator's 64-spec pool.
const hotReplayLen = 1024

// hotReplay is fleet-hot's request list for seed: the loadgen stream with
// its fault and deadline tranches off, as JSON bodies.
func hotReplay(seed uint64) []string {
	g := loadgen.NewGenerator(loadgen.MixConfig{Seed: seed, FaultEvery: -1, DeadlineEvery: -1})
	out := make([]string, hotReplayLen)
	for i := range out {
		out[i] = g.Spec(i)
	}
	return out
}

// distinct returns the distinct entries of xs in order of first
// appearance: the pool set-up warms.
func distinct(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
