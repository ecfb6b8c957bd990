package experiment

import (
	"strings"

	"clustereval/internal/apps/alya"
	"clustereval/internal/apps/gromacs"
	"clustereval/internal/apps/nemo"
	"clustereval/internal/apps/openifs"
	"clustereval/internal/apps/scaling"
	"clustereval/internal/apps/wrf"
	"clustereval/internal/machine"
)

// AppInfo is one Section V application in the catalog: its name, the
// primary scalability figure Table IV scores it by, the model run
// producing that figure's series for both paper machines, and the
// single-machine sweep used for machines outside the pair.
type AppInfo struct {
	Name     string
	Figure   string
	Series   func(Pair) ([]scaling.Series, error)
	SeriesOn func(machine.Machine) ([]scaling.Series, error)
}

// maxAppPartition caps the partition an application model schedules onto:
// the Section V jobs are a few thousand nodes at most, so on a
// Fugaku-scale system the model builds its fabric over one scheduler
// partition instead of all ~159k nodes.
const maxAppPartition = 6144

// appPartition returns m capped to maxAppPartition nodes. The machine's
// global topology shape no longer covers the capped count, so the
// partition falls back to the interconnect's derived shape.
func appPartition(m machine.Machine) machine.Machine {
	if m.Nodes > maxAppPartition {
		m.Nodes = maxAppPartition
		m.Topology.Dims = nil
		m.Topology.Wrap = nil
	}
	return m
}

// two adapts the common (cte, ref, err) figure signature to a series slice.
func two(cte, ref scaling.Series, err error) ([]scaling.Series, error) {
	if err != nil {
		return nil, err
	}
	return []scaling.Series{cte, ref}, nil
}

// appCatalog is the single source of truth for the applications the "app"
// kind accepts, in the paper's order: spec validation, the menu of
// `clustereval app` and the per-app figure labels all derive from it.
// Adding an application here is the only step needed to expose it
// everywhere.
var appCatalog = []AppInfo{
	{"alya", "Fig. 8",
		func(p Pair) ([]scaling.Series, error) { return two(alya.Figure8(p.Arm, p.Ref)) },
		alya.SweepOn},
	{"nemo", "Fig. 11",
		func(p Pair) ([]scaling.Series, error) { return two(nemo.Figure11(p.Arm, p.Ref)) },
		nemo.SweepOn},
	{"gromacs", "Fig. 13",
		func(p Pair) ([]scaling.Series, error) { return two(gromacs.Figure13(p.Arm, p.Ref)) },
		gromacs.SweepOn},
	{"openifs", "Fig. 15",
		func(p Pair) ([]scaling.Series, error) { return two(openifs.Figure15(p.Arm, p.Ref)) },
		openifs.SweepOn},
	{"wrf", "Fig. 16",
		func(p Pair) ([]scaling.Series, error) { return wrf.Figure16(p.Arm, p.Ref) },
		wrf.SweepOn},
}

// AppNames returns the catalog's application names in the paper's order.
func AppNames() []string {
	out := make([]string, len(appCatalog))
	for i, a := range appCatalog {
		out[i] = a.Name
	}
	return out
}

// AppByName looks an application up in the catalog.
func AppByName(name string) (AppInfo, bool) {
	for _, a := range appCatalog {
		if a.Name == name {
			return a, true
		}
	}
	return AppInfo{}, false
}

func appNamesJoined() string { return strings.Join(AppNames(), " ") }
