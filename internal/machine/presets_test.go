package machine

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"clustereval/internal/units"
)

// relClose reports |got-want|/|want| <= tol.
func relClose(got, want, tol float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want)/math.Abs(want) <= tol
}

func TestPresetNamesSortedAndStable(t *testing.T) {
	first := PresetNames()
	if !sort.StringsAreSorted(first) {
		t.Errorf("PresetNames() = %v, not sorted", first)
	}
	want := []string{"cte-arm", "fugaku", "mn4", "thunderx2"}
	if !reflect.DeepEqual(first, want) {
		t.Errorf("PresetNames() = %v, want %v", first, want)
	}
	// Deterministic across calls, and callers mutating the returned
	// slice must not corrupt the registry.
	got := PresetNames()
	got[0] = "mutated"
	if again := PresetNames(); !reflect.DeepEqual(again, first) {
		t.Errorf("PresetNames() after caller mutation = %v, want %v", again, first)
	}
}

func TestPresetSlugRoundTrip(t *testing.T) {
	for _, def := range presetDefs {
		// The slug resolves to itself.
		if got, ok := PresetSlug(def.Slug); !ok || got != def.Slug {
			t.Errorf("PresetSlug(%q) = %q, %v; want the slug back", def.Slug, got, ok)
		}
		// Every alias, the full system name, and case variants resolve
		// to the canonical slug.
		names := append([]string{def.Name, def.Slug}, def.Aliases...)
		for _, n := range names {
			for _, v := range []string{n, "  " + n + " "} {
				got, ok := PresetSlug(v)
				if !ok || got != def.Slug {
					t.Errorf("PresetSlug(%q) = %q, %v; want %q", v, got, ok, def.Slug)
				}
			}
		}
		// And the resolved machine's own Name round-trips to the slug,
		// so results can always be mapped back to their preset.
		m, ok := Preset(def.Slug)
		if !ok {
			t.Fatalf("Preset(%q) missing", def.Slug)
		}
		if got, ok := PresetSlug(m.Name); !ok || got != def.Slug {
			t.Errorf("PresetSlug(%q) = %q, %v; want %q", m.Name, got, ok, def.Slug)
		}
	}
	if _, ok := PresetSlug("summit"); ok {
		t.Error("PresetSlug accepted an unregistered name")
	}
}

func TestPresetBuildIsolation(t *testing.T) {
	a := ThunderX2()
	a.Node.Domains[0].PeakBW = 1
	a.Power.CoreActive[ISANEON] = 999
	a.SIMD[0] = ISAAVX512
	b := ThunderX2()
	if b.Node.Domains[0].PeakBW == 1 || b.Power.CoreActive[ISANEON] == 999 || b.SIMD[0] == ISAAVX512 {
		t.Error("mutating one built preset leaked into the next build")
	}
}

func TestAllPresetsValidate(t *testing.T) {
	for _, name := range PresetNames() {
		m, ok := Preset(name)
		if !ok {
			t.Fatalf("Preset(%q) missing", name)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !m.Power.Defined() {
			t.Errorf("%s: no power model — energy figures would be silently zero", name)
		}
	}
}

// TestThunderX2CrossValidation pins the derived ThunderX2 numbers
// against the Dibona study (arxiv 2007.04868). Like TestTableI, every
// value is *derived* from the layer inputs; the tolerances state how
// closely the study's measurements constrain the model.
func TestThunderX2CrossValidation(t *testing.T) {
	m := ThunderX2()
	checks := []struct {
		name string
		got  float64
		want float64
		tol  float64
	}{
		// 128-bit NEON, 2 FMA pipes, 2 GHz: 2 lanes * 2 pipes * 2 flops
		// * 2.0e9 = 16 GFlop/s per core, exactly.
		{"DP peak per core (GFlop/s)", m.Node.Core.DoublePeak().Giga(), 16.0, 1e-12},
		// 2 x 32 cores: 1.024 TFlop/s per node, exactly.
		{"DP peak per node (GFlop/s)", m.Node.DoublePeak().Giga(), 1024.0, 1e-12},
		// 16 channels of DDR4-2666: the study quotes 170.7 GB/s per socket.
		{"peak memory BW per node (GB/s)", m.Node.MemoryPeak().GB(), 341.4, 1e-12},
		// Full-node Triad: the study measures ~215 GB/s (63 % of peak).
		{"STREAM-sustained BW per node (GB/s)",
			m.Node.MemoryPeak().GB() * m.Node.Domains[0].StreamEff, 215.0, 0.02},
		// Full-load node draw: two ~175 W sockets plus DDR4 and chassis
		// floor. The study's wall measurements put the node near 350 W.
		{"full-load node power (W)", float64(m.FullLoadPower()), 350.0, 0.10},
	}
	for _, c := range checks {
		if !relClose(c.got, c.want, c.tol) {
			t.Errorf("%s = %.4g, want %.4g within %.1f%%", c.name, c.got, c.want, 100*c.tol)
		}
	}

	// Energy efficiency at full DP load: peak/power ~= 3.1 GFlop/s/W.
	// The study's core result is that ThunderX2 trails Skylake on
	// compute-bound energy-to-solution but closes the gap on
	// bandwidth-bound codes; our derived ratios must reproduce both
	// orderings.
	gfw := m.Node.DoublePeak().Giga() / float64(m.FullLoadPower())
	if gfw < 2.5 || gfw > 3.5 {
		t.Errorf("ThunderX2 peak efficiency = %.3g GFlop/s/W, want within [2.5, 3.5]", gfw)
	}
	mn4 := MareNostrum4()
	mn4GFW := mn4.Node.DoublePeak().Giga() / float64(mn4.FullLoadPower())
	if gfw >= mn4GFW {
		t.Errorf("compute-bound: ThunderX2 %.3g GFlop/s/W should trail Skylake %.3g", gfw, mn4GFW)
	}
	// Bandwidth per watt: 16 DDR4 channels vs 12 give ThunderX2 the edge.
	txBWW := m.Node.MemoryPeak().GB() * m.Node.Domains[0].StreamEff / float64(m.FullLoadPower())
	mnBWW := mn4.Node.MemoryPeak().GB() * mn4.Node.Domains[0].StreamEff / float64(mn4.FullLoadPower())
	if txBWW <= mnBWW {
		t.Errorf("bandwidth-bound: ThunderX2 %.3g GB/s/W should beat Skylake %.3g", txBWW, mnBWW)
	}
}

// TestFugakuScale pins the Fugaku-scale preset: same A64FX node as
// CTE-Arm, three orders of magnitude more of them, on the production
// 6-D Tofu-D shape.
func TestFugakuScale(t *testing.T) {
	fugaku := Fugaku()
	cte := CTEArm()
	// Same chip: the core and memory layers must be identical.
	if !reflect.DeepEqual(fugaku.Node.Core, cte.Node.Core) {
		t.Error("Fugaku core layer differs from CTE-Arm's A64FX")
	}
	if !reflect.DeepEqual(fugaku.Node.MemoryModel, cte.Node.MemoryModel) {
		t.Error("Fugaku memory layer differs from CTE-Arm's A64FX")
	}
	if fugaku.Nodes != 158976 {
		t.Errorf("Fugaku nodes = %d, want 158976", fugaku.Nodes)
	}
	product := 1
	for _, d := range fugaku.Topology.Dims {
		product *= d
	}
	if product != fugaku.Nodes {
		t.Errorf("Tofu-D dims %v cover %d nodes, want %d", fugaku.Topology.Dims, product, fugaku.Nodes)
	}
	// Full system DP peak: 158976 * 3.3792 TFlop/s = 537 PFlop/s.
	peak := fugaku.ClusterPeak(fugaku.Nodes)
	if !relClose(peak.Tera()/1e3, 537.2, 0.01) {
		t.Errorf("Fugaku cluster peak = %.4g PFlop/s, want ~537", peak.Tera()/1e3)
	}
	// Full-load power: ~187 W per node -> ~30 MW system, and ~15 GF/W
	// on an HPL-class run (85 % of peak), the A64FX's Green500 band.
	system := float64(fugaku.FullLoadPower()) * float64(fugaku.Nodes)
	if system < 25e6 || system > 35e6 {
		t.Errorf("Fugaku full-load draw = %.3g MW, want within [25, 35]", system/1e6)
	}
	gfw := 0.85 * peak.Giga() / system
	if gfw < 13 || gfw > 17 {
		t.Errorf("Fugaku HPL-class efficiency = %.3g GFlop/s/W, want within [13, 17]", gfw)
	}
}

func TestNodeEnergyBreakdown(t *testing.T) {
	m := CTEArm()
	full := Activity{ActiveCores: 48, ISA: ISASVE, ComputeFrac: 1, MemBWFrac: 0.851, Network: true}
	e := m.NodeEnergy(full, 10)
	if e.Core <= 0 || e.Memory <= 0 || e.Network <= 0 || e.Base <= 0 {
		t.Fatalf("full-load breakdown has a zero component: %+v", e)
	}
	wantTotal := units.EnergyFor(m.NodePower(full), 10)
	if !relClose(float64(e.Total()), float64(wantTotal), 1e-12) {
		t.Errorf("breakdown total %v != NodePower integral %v", e.Total(), wantTotal)
	}
	// Idle node: only the floor and idle rails draw.
	idle := m.NodeEnergy(Activity{}, 10)
	if idle.Network != 0 {
		t.Errorf("idle node drew NIC energy %v", idle.Network)
	}
	if idle.Total() >= e.Total() {
		t.Error("idle energy not below full-load energy")
	}
	// Degenerate inputs never go negative.
	if got := m.NodeEnergy(Activity{ActiveCores: -5, ComputeFrac: -2, MemBWFrac: 7}, 10); got.Total() < 0 {
		t.Errorf("negative energy from degenerate activity: %+v", got)
	}
	if got := m.NodeEnergy(full, -1); got.Total() != 0 {
		t.Errorf("negative interval produced energy: %+v", got)
	}
	// A machine without a power layer reports zero joules, not garbage.
	var bare Machine
	bare.Node = m.Node
	if got := bare.NodeEnergy(full, 10); got.Total() != 0 {
		t.Errorf("power-less machine produced energy: %+v", got)
	}
}

func TestValidateLayerErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Machine)
	}{
		{"port/issue-width mismatch", func(m *Machine) {
			m.Node.Core.Ports = m.Node.Core.Ports[:1]
		}},
		{"unnamed port", func(m *Machine) {
			m.Node.Core.Ports[0].Name = ""
		}},
		{"negative sector-cache ways", func(m *Machine) {
			m.Node.SectorCacheWays = -1
		}},
		{"topology dims do not cover nodes", func(m *Machine) {
			m.Topology.Dims = []int{2, 3}
		}},
		{"non-positive topology dim", func(m *Machine) {
			m.Topology.Dims = []int{m.Nodes, 1, 0}
		}},
		{"wrap length mismatch", func(m *Machine) {
			m.Topology.Dims = []int{m.Nodes}
			m.Topology.Wrap = []bool{true, false}
		}},
		{"negative leaf size", func(m *Machine) {
			m.Topology.LeafSize = -4
		}},
		{"negative power rail", func(m *Machine) {
			m.Power.NIC = -1
		}},
		{"negative ISA rail", func(m *Machine) {
			m.Power.CoreActive[ISASVE] = -1
		}},
		{"missing scalar rail", func(m *Machine) {
			delete(m.Power.CoreActive, ISAScalar)
		}},
		{"missing node floor", func(m *Machine) {
			m.Power.NodeBase = 0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := CTEArm()
			tc.mutate(&m)
			if m.Validate() == nil {
				t.Errorf("Validate accepted %s", tc.name)
			}
		})
	}
}

// TestValidateNamesNegativeRailsInOrder pins the error text when several
// active-core rails are negative: every one is named, in sorted order,
// so the message does not depend on map iteration order.
func TestValidateNamesNegativeRailsInOrder(t *testing.T) {
	m := CTEArm()
	m.Power.CoreActive[ISASVE] = -1
	m.Power.CoreActive[ISANEON] = -2
	m.Power.CoreActive[ISAScalar] = -3
	want := fmt.Sprintf("machine %s: negative active-core power for NEON, SVE, scalar", m.Name)
	for i := 0; i < 20; i++ {
		if err := m.Validate(); err == nil || err.Error() != want {
			t.Fatalf("Validate() = %v, want %q", err, want)
		}
	}
}
