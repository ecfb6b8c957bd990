package experiment

import (
	"context"
	"fmt"

	"clustereval/internal/machine"
)

func appDef() Definition {
	return Definition{
		Kind:   KindApp,
		Title:  "Section V application scalability sweep",
		Figure: "Fig. 8-16",
		New:    func() Params { return &AppParams{} },
		Fields: []Field{
			{Name: "app", Type: "string",
				Usage: "application to evaluate", Enum: AppNames()},
			{Name: "nodes", Type: "int", Default: "0",
				Usage: "probe one node count of the sweep (0 = whole paper sweep)"},
			{Name: "faults", Type: "json", Default: "",
				Usage: "fault scenario (see internal/faultsim); an app result sees only a link's extra_latency_seconds"},
		},
	}
}

// AppParams parameterises one Section V application scalability job.
type AppParams struct {
	App   string
	Nodes int
}

// FromSpec implements Params.
func (p *AppParams) FromSpec(spec Spec, m machine.Machine) error {
	if _, ok := AppByName(spec.App); !ok {
		return invalidf("unknown app %q (valid: %s)", spec.App, appNamesJoined())
	}
	p.App = spec.App
	if spec.Nodes < 0 || spec.Nodes > m.Nodes {
		return invalidf("nodes %d out of [0, %d] on %s", spec.Nodes, m.Nodes, m.Name)
	}
	p.Nodes = spec.Nodes
	return nil
}

// ApplyTo implements Params.
func (p *AppParams) ApplyTo(spec *Spec) {
	spec.App = p.App
	spec.Nodes = p.Nodes
}

// Run implements Params.
func (p *AppParams) Run(ctx context.Context, env Env) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	info, _ := AppByName(p.App)
	// Member carries the pair's seed and faults onto a paper machine; the
	// partition bounds a Fugaku-scale machine's schedule.
	series, err := info.SeriesOn(appPartition(env.Pair.Member(env.Machine)))
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := env.Machine
	ar := &AppResult{App: p.App, Figure: info.Figure}
	for _, s := range series {
		as := AppSeries{Label: s.Label}
		for _, pt := range s.Sorted() {
			as.Points = append(as.Points, AppPoint{Nodes: pt.Nodes, Seconds: float64(pt.Time)})
		}
		ar.Series = append(ar.Series, as)
	}
	summary := fmt.Sprintf("%s (%s) on %s: %d-point scalability sweep",
		p.App, ar.Figure, m.Name, len(ar.Series[0].Points))
	// Energy-to-solution at the probed node count, or the sweep's largest.
	energyNodes := p.Nodes
	if energyNodes == 0 {
		for _, pt := range ar.Series[0].Points {
			if pt.Nodes > energyNodes {
				energyNodes = pt.Nodes
			}
		}
	}
	if p.Nodes > 0 {
		t, ok := series[0].TimeAt(p.Nodes)
		if !ok {
			return nil, invalidf("%s has no %d-node point on %s in the paper's sweep",
				p.App, p.Nodes, m.Name)
		}
		ar.TimeAtNodes = float64(t)
		summary = fmt.Sprintf("%s (%s) on %d %s nodes: %v per iteration unit",
			p.App, ar.Figure, p.Nodes, m.Name, t)
	}
	var energy *EnergyResult
	if t, ok := series[0].TimeAt(energyNodes); ok {
		energy = appEnergy(env.Pair.Member(m), energyNodes, t)
	}
	return &Result{Kind: KindApp, Machine: m.Name, Summary: summary, App: ar, Energy: energy}, nil
}
