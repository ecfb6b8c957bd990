package figures

import (
	"fmt"
	"io"
)

// Renderer is one rendered table, plot or heatmap: printable as text and
// exportable as CSV.
type Renderer interface {
	Render(io.Writer) error
	CSV(io.Writer) error
}

// Artefact is one table or figure of the paper, or the energy table
// beyond it.
type Artefact struct {
	// Name is the artefact's CSV base name: table1..table4, fig1..fig16
	// or energy.
	Name string
	// Table or Figure is the artefact's number in the paper, the other
	// one zero; both are zero for the energy table, which clustereval
	// exports but does not print.
	Table, Figure int
	// Make renders the artefact for p. note is text clustereval prints
	// after the rendering but leaves out of the CSV: Fig. 4's degraded
	// receivers.
	Make func(p Pair) (r Renderer, note string, err error)
}

// Artefacts lists every artefact in paper order: Tables I–IV, Figs. 1–16,
// then the energy table. clustereval prints and exports by walking it.
func Artefacts() []Artefact {
	return []Artefact{
		{Name: "table1", Table: 1, Make: func(p Pair) (Renderer, string, error) { return p.TableI(), "", nil }},
		{Name: "table2", Table: 2, Make: func(p Pair) (Renderer, string, error) { return p.TableII(), "", nil }},
		{Name: "table3", Table: 3, Make: func(p Pair) (Renderer, string, error) { return p.TableIII(), "", nil }},
		{Name: "table4", Table: 4, Make: func(p Pair) (Renderer, string, error) {
			rows, err := p.TableIV()
			return RenderTableIV(rows), "", err
		}},
		{Name: "fig1", Figure: 1, Make: of(Pair.Figure1)},
		{Name: "fig2", Figure: 2, Make: firstOf(Pair.Figure2)},
		{Name: "fig3", Figure: 3, Make: firstOf(Pair.Figure3)},
		{Name: "fig4", Figure: 4, Make: func(p Pair) (Renderer, string, error) {
			hm, raw, err := p.Figure4(256)
			if err != nil {
				return nil, "", err
			}
			var note []byte
			for _, d := range raw.DegradedReceivers(0.5) {
				note = fmt.Appendf(note, "degraded receiver detected: node %d\n", d)
			}
			return hm, string(note), nil
		}},
		{Name: "fig5", Figure: 5, Make: firstOf(Pair.Figure5)},
		{Name: "fig6", Figure: 6, Make: firstOf(Pair.Figure6)},
		{Name: "fig7", Figure: 7, Make: firstOf(Pair.Figure7)},
		{Name: "fig8", Figure: 8, Make: of(Pair.Figure8)},
		{Name: "fig9", Figure: 9, Make: of(Pair.Figure9)},
		{Name: "fig10", Figure: 10, Make: of(Pair.Figure10)},
		{Name: "fig11", Figure: 11, Make: of(Pair.Figure11)},
		{Name: "fig12", Figure: 12, Make: of(Pair.Figure12)},
		{Name: "fig13", Figure: 13, Make: of(Pair.Figure13)},
		{Name: "fig14", Figure: 14, Make: of(Pair.Figure14)},
		{Name: "fig15", Figure: 15, Make: of(Pair.Figure15)},
		{Name: "fig16", Figure: 16, Make: of(Pair.Figure16)},
		// Beyond the paper: modeled energy-to-solution for every workload
		// on every registered machine preset.
		{Name: "energy", Make: func(Pair) (Renderer, string, error) {
			t, err := EnergyToSolution()
			return t, "", err
		}},
	}
}

// of adapts a renderer that returns only its report.
func of[R Renderer](f func(Pair) (R, error)) func(Pair) (Renderer, string, error) {
	return func(p Pair) (Renderer, string, error) {
		r, err := f(p)
		return r, "", err
	}
}

// firstOf adapts a renderer that also returns its raw data, which the
// artefact does not need.
func firstOf[R Renderer, D any](f func(Pair) (R, D, error)) func(Pair) (Renderer, string, error) {
	return func(p Pair) (Renderer, string, error) {
		r, _, err := f(p)
		return r, "", err
	}
}
