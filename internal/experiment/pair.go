package experiment

import (
	"clustereval/internal/bench/stream"
	"clustereval/internal/machine"
	"clustereval/internal/toolchain"
	"clustereval/internal/xrand"
)

// Pair holds the two machines under evaluation. The per-kind entry points
// below (StreamSeriesOn, HybridStreamSeriesOn) are the registry's wiring
// of each experiment to its paper configuration — Table II builds and
// array sizes — defined once and shared by the figure renderers, the
// evaluation service and the CLI tools, so all three produce
// bit-identical numbers.
type Pair struct {
	Arm, Ref machine.Machine
}

// DefaultPair returns the paper's machine pair.
func DefaultPair() Pair {
	return Pair{Arm: machine.CTEArm(), Ref: machine.MareNostrum4()}
}

// PairWithSeed returns the paper's machine pair with an alternative noise
// seed plumbed into both machines' network descriptors. Seed 0 keeps the
// built-in seeds that reproduce the paper bit-for-bit; any other value
// yields a different — but equally deterministic — realisation of the
// interconnect noise, so repeated runs with the same seed agree exactly.
// Per-machine streams are derived through xrand so the two fabrics never
// share a noise stream.
func PairWithSeed(seed uint64) Pair {
	p := DefaultPair()
	if seed != 0 {
		p.Arm.Network.Seed = xrand.MixN(seed, 1)
		p.Ref.Network.Seed = xrand.MixN(seed, 2)
	}
	return p
}

// streamSetup returns the STREAM build and array size used on machine m.
// The paper machines get their Table II rows keyed by silicon — any A64FX
// system builds like CTE-Arm, any x86 one like MareNostrum 4 — and other
// Armv8 systems get the GNU/NEON build with the x86 sizing rule.
func streamSetup(m machine.Machine) (toolchain.Compiler, int) {
	switch {
	case m.CPUName == "A64FX":
		return toolchain.StreamOpenMPArm(), 610e6
	case m.Arch == "Armv8":
		return toolchain.StreamGNUArm(), 400e6
	default:
		return toolchain.StreamMN4(), 400e6
	}
}

// hybridStreamCompiler returns the Fig. 3 MPI+OpenMP STREAM build for m,
// with the same silicon-keyed fallbacks as streamSetup.
func hybridStreamCompiler(m machine.Machine) toolchain.Compiler {
	switch {
	case m.CPUName == "A64FX":
		return toolchain.StreamHybridArm()
	case m.Arch == "Armv8":
		return toolchain.StreamGNUArm()
	default:
		return toolchain.StreamMN4()
	}
}

// Member resolves m against the pair: the pair's own copy (carrying any
// PairWithSeed noise seed) when m is one of the paper machines, and m
// itself — already seeded by the run layer — otherwise. This is what lets
// every experiment kind run on machines outside the paper's pair.
func (p Pair) Member(m machine.Machine) machine.Machine {
	switch m.Name {
	case p.Arm.Name:
		return p.Arm
	case p.Ref.Name:
		return p.Ref
	}
	return m
}

// StreamSeriesOn runs the Fig. 2 OpenMP thread sweep for one machine and
// language, with exactly the build and array size the full figure uses,
// resolving paper machines through the pair and others directly. The
// evaluation service serves STREAM jobs through this entry point, so they
// match the CLI numbers bit-for-bit.
func (p Pair) StreamSeriesOn(m machine.Machine, lang toolchain.Language) (stream.Series, error) {
	m = p.Member(m)
	comp, elements := streamSetup(m)
	return stream.Figure2(m, comp, lang, elements)
}

// HybridStreamSeriesOn runs the Fig. 3 hybrid MPI+OpenMP sweep for one
// machine and language, using the full figure's build configuration.
func (p Pair) HybridStreamSeriesOn(m machine.Machine, lang toolchain.Language) (stream.HybridSeries, error) {
	m = p.Member(m)
	return stream.Figure3(m, hybridStreamCompiler(m), lang)
}
