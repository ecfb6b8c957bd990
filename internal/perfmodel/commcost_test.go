package perfmodel

import (
	"fmt"
	"math"
	"testing"

	"clustereval/internal/faultsim"
	"clustereval/internal/interconnect"
	"clustereval/internal/machine"
	"clustereval/internal/sched"
	"clustereval/internal/units"
)

// referenceCommCost is the oracle for NewCommCost: Fabric.Latency summed
// over the same sampled pairs, in the same order.
func referenceCommCost(f *interconnect.Fabric, nodes []int) CommCost {
	stride := 1
	if len(nodes) > 64 {
		stride = len(nodes) / 64
	}
	var sum float64
	var count int
	for i := 0; i < len(nodes); i += stride {
		for j := i + stride; j < len(nodes); j += stride {
			sum += float64(f.Latency(nodes[i], nodes[j]))
			count++
		}
	}
	alpha := f.Net.BaseLatency
	if count > 0 {
		alpha = units.Seconds(sum / float64(count))
	}
	return CommCost{Alpha: alpha, Beta: 1 / float64(f.Net.LinkPeak)}
}

// commCostFabrics returns the fabrics the α oracle and benchmark price:
// CTE-Arm's TofuD, MareNostrum 4's and ThunderX2's fat trees, and
// CTE-Arm with extra latency injected on the links between consecutive
// nodes, which every placement below crosses.
func commCostFabrics(tb testing.TB) []*interconnect.Fabric {
	tb.Helper()
	var fabs []*interconnect.Fabric
	for _, m := range []machine.Machine{machine.CTEArm(), machine.MareNostrum4(), machine.ThunderX2(), machine.CTEArm()} {
		f, err := interconnect.New(m, m.Nodes)
		if err != nil {
			tb.Fatal(err)
		}
		fabs = append(fabs, f)
	}
	spec := &faultsim.Spec{}
	for src := range 191 {
		spec.Links = append(spec.Links, faultsim.LinkFault{Src: src, Dst: src + 1, ExtraLatencySeconds: 0.3e-6})
	}
	faults, err := spec.Compile(192, 0)
	if err != nil {
		tb.Fatal(err)
	}
	fabs[3].Faults = faults
	return fabs
}

// TestCommCostDifferential pins NewCommCost's per-hop table to the
// reference that calls Fabric.Latency on every sampled pair: α and β
// must match bit for bit on CTE-Arm's TofuD, MareNostrum 4's 3,456-node
// and ThunderX2's 40-node fat trees, and a TofuD with injected link
// latency, for topology-aware and random placements of 1 to 192 nodes
// (65, 128 and 192 sample on a stride) and a list that repeats a node.
func TestCommCostDifferential(t *testing.T) {
	for k, f := range commCostFabrics(t) {
		name := fmt.Sprintf("%s-%d", f.Topo.Name(), f.Topo.Nodes())
		if f.Faults != nil {
			name += "/faulted"
		}
		check := func(label string, alloc []int) {
			got, want := NewCommCost(f, alloc), referenceCommCost(f, alloc)
			if math.Float64bits(float64(got.Alpha)) != math.Float64bits(float64(want.Alpha)) ||
				math.Float64bits(got.Beta) != math.Float64bits(want.Beta) {
				t.Errorf("%s %s: NewCommCost = %+v, Latency reference %+v", name, label, got, want)
			}
		}
		check("repeated", []int{5, 9, 5, 23, 9})
		for _, n := range []int{1, 2, 64, 65, 96, 128, 192} {
			if n > f.Topo.Nodes() {
				continue
			}
			for _, policy := range []sched.Policy{sched.TopologyAware, sched.Random} {
				alloc, err := sched.New(f.Topo, policy, uint64(k+1)).Allocate(n)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%s/n=%d", policy, n), alloc)
			}
		}
	}
}

// BenchmarkNewCommCost times α and β of a topology-aware placement, as
// every application model prices each data point, on CTE-Arm's TofuD
// and MareNostrum 4's fat tree.
func BenchmarkNewCommCost(b *testing.B) {
	for _, f := range commCostFabrics(b)[:2] {
		for _, n := range []int{16, 96, 192} {
			alloc, err := sched.New(f.Topo, sched.TopologyAware, 1).Allocate(n)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s-%d/n=%d", f.Topo.Name(), f.Topo.Nodes(), n), func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					NewCommCost(f, alloc)
				}
			})
		}
	}
}
