package gromacs

import (
	"testing"
	"testing/quick"

	"clustereval/internal/machine"
)

// Property: the multi-node model's step time strictly decreases with node
// count at fixed layout density (no anomaly configurations).
func TestModelMonotoneProperty(t *testing.T) {
	mod, err := NewModel(machineCTE(), LignocelluloseRF())
	if err != nil {
		t.Fatal(err)
	}
	f := func(nRaw uint8) bool {
		nodes := int(nRaw%64) + 4 // avoid the 2-node anomaly configuration
		l1 := Layout{Nodes: nodes, Ranks: 8 * nodes, ThreadsPerRank: 6}
		l2 := Layout{Nodes: nodes * 2, Ranks: 16 * nodes, ThreadsPerRank: 6}
		if l2.Nodes > 192 {
			return true
		}
		t1, err := mod.StepTime(l1)
		if err != nil {
			return false
		}
		t2, err := mod.StepTime(l2)
		if err != nil {
			return false
		}
		return t2 < t1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func machineCTE() machine.Machine { return machine.CTEArm() }
