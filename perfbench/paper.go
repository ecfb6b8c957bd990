package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"clustereval/internal/core"
	"clustereval/internal/figures"
	"clustereval/internal/report"
)

// paperSetups is how many times a paper run builds its evaluation; one
// set-up takes well under a millisecond, so the median of several is
// reported.
const paperSetups = 21

// goldenFiles are the committed clustereval outputs a regeneration must
// reproduce byte for byte at seed 0. Table IV does not depend on the
// interconnect seed, so it is checked at every seed.
var goldenFiles = map[string]string{
	"table4": "table4.golden",
	"fig2":   "fig2.csv.golden",
	"fig5":   "fig5.csv.golden",
	"fig6":   "fig6.csv.golden",
	"fig7":   "fig7.csv.golden",
}

// paperOther are the artefacts reported together as paper.other_s: each
// takes well under 1% of a regeneration.
var paperOther = map[string]bool{
	"table1": true, "table2": true, "table3": true,
	"fig2": true, "fig3": true, "fig6": true, "fig7": true, "fig12": true, "fig14": true,
}

// paper regenerates the evaluation the way clustereval prints it.
type paper struct {
	seed   uint64
	ev     *core.Evaluation
	pair   figures.Pair
	golden map[string][]byte

	out  bytes.Buffer             // the regenerated text
	csv  map[string]*bytes.Buffer // regenerated CSVs of the golden artefacts
	arts []artefact
}

// artefact is one table, figure or the conclusions block.
type artefact struct {
	name string
	make func() error
}

func newPaper(seed uint64, goldenDir string) (*paper, error) {
	p := &paper{
		seed:   seed,
		ev:     core.New(),
		pair:   figures.WithSeed(seed),
		golden: map[string][]byte{},
		csv:    map[string]*bytes.Buffer{},
	}
	for name, file := range goldenFiles {
		b, err := os.ReadFile(filepath.Join(goldenDir, file))
		if err != nil {
			return nil, fmt.Errorf("reading golden: %w", err)
		}
		p.golden[name] = b
		p.csv[name] = &bytes.Buffer{}
	}
	p.arts = p.artefacts()
	return p, nil
}

type renderer interface {
	Render(io.Writer) error
	CSV(io.Writer) error
}

// emit renders r followed by trailer, and keeps r's CSV when the artefact
// has a golden.
func (p *paper) emit(name string, r renderer, trailer string) error {
	if err := r.Render(&p.out); err != nil {
		return err
	}
	p.out.WriteString(trailer)
	if buf, ok := p.csv[name]; ok {
		buf.Reset()
		return r.CSV(buf)
	}
	return nil
}

func (p *paper) artefacts() []artefact {
	// Tables end in one blank line, figures in two when printed as a
	// table and in one as a plot, as clustereval prints them.
	table := func(name string, get func() (*report.Table, error)) artefact {
		return artefact{name, func() error {
			t, err := get()
			if err != nil {
				return err
			}
			return p.emit(name, t, "\n")
		}}
	}
	figTable := func(name string, get func() (*report.Table, error)) artefact {
		return artefact{name, func() error {
			t, err := get()
			if err != nil {
				return err
			}
			return p.emit(name, t, "\n\n")
		}}
	}
	plot := func(name string, get func() (*report.Plot, error)) artefact {
		return artefact{name, func() error {
			pl, err := get()
			if err != nil {
				return err
			}
			return p.emit(name, pl, "\n")
		}}
	}
	return []artefact{
		table("table1", func() (*report.Table, error) { return p.ev.TableI(), nil }),
		table("table2", func() (*report.Table, error) { return p.ev.TableII(), nil }),
		table("table3", func() (*report.Table, error) { return p.ev.TableIII(), nil }),
		table("table4", func() (*report.Table, error) {
			rows, err := p.ev.TableIV()
			if err != nil {
				return nil, err
			}
			return core.RenderTableIV(rows), nil
		}),
		figTable("fig1", p.pair.Figure1),
		plot("fig2", func() (*report.Plot, error) {
			pl, _, err := p.pair.Figure2()
			return pl, err
		}),
		figTable("fig3", func() (*report.Table, error) {
			t, _, err := p.pair.Figure3()
			return t, err
		}),
		{"fig4", func() error {
			hm, raw, err := p.pair.Figure4(256)
			if err != nil {
				return err
			}
			if err := hm.Render(&p.out); err != nil {
				return err
			}
			for _, d := range raw.DegradedReceivers(0.5) {
				fmt.Fprintf(&p.out, "degraded receiver detected: node %d\n", d)
			}
			p.out.WriteString("\n")
			return nil
		}},
		figTable("fig5", func() (*report.Table, error) {
			t, _, err := p.pair.Figure5()
			return t, err
		}),
		plot("fig6", func() (*report.Plot, error) {
			pl, _, err := p.pair.Figure6()
			return pl, err
		}),
		figTable("fig7", func() (*report.Table, error) {
			t, _, err := p.pair.Figure7()
			return t, err
		}),
		plot("fig8", p.pair.Figure8),
		plot("fig9", p.pair.Figure9),
		plot("fig10", p.pair.Figure10),
		plot("fig11", p.pair.Figure11),
		plot("fig12", p.pair.Figure12),
		plot("fig13", p.pair.Figure13),
		plot("fig14", p.pair.Figure14),
		plot("fig15", p.pair.Figure15),
		plot("fig16", p.pair.Figure16),
		{"conclusions", p.conclusions},
	}
}

// conclusions prints the Section VI findings and fails unless every one
// holds.
func (p *paper) conclusions() error {
	findings, err := p.ev.Conclusions()
	if err != nil {
		return err
	}
	p.out.WriteString("Conclusions (Section VI), checked against the models:\n")
	var broken []string
	for _, f := range findings {
		mark := "ok  "
		if !f.Holds {
			mark = "FAIL"
			broken = append(broken, f.Statement)
		}
		fmt.Fprintf(&p.out, "  [%s] %s — %s\n", mark, f.Statement, f.Evidence)
	}
	if len(broken) > 0 {
		return fmt.Errorf("conclusions do not hold: %s", strings.Join(broken, "; "))
	}
	return nil
}

// check compares the regenerated CSVs with the goldens.
func (p *paper) check() error {
	names := make([]string, 0, len(goldenFiles))
	for name := range goldenFiles {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if p.seed != 0 && name != "table4" {
			continue
		}
		if !bytes.Equal(p.csv[name].Bytes(), p.golden[name]) {
			return fmt.Errorf("%s differs from %s", name, goldenFiles[name])
		}
	}
	return nil
}

// regenerate produces every artefact once and checks the outputs. With a
// tracer it records one root span and a child span per artefact, with the
// artefact's allocation count; the counter reads sit outside the child
// spans, so their cost shows as the root's self time.
func (p *paper) regenerate(ctx context.Context, tr *tracer, traceID uint64) error {
	p.out.Reset()
	if tr == nil {
		for _, a := range p.arts {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := a.make(); err != nil {
				return fmt.Errorf("%s: %w", a.name, err)
			}
		}
		return p.check()
	}
	root := tr.id()
	start := time.Now()
	defer func() { tr.add(traceID, root, 0, "paper", start, time.Now(), 0) }()
	for _, a := range p.arts {
		if err := ctx.Err(); err != nil {
			return err
		}
		m0 := mallocs()
		t0 := time.Now()
		err := a.make()
		t1 := time.Now()
		tr.add(traceID, tr.id(), root, "paper."+a.name, t0, t1, mallocs()-m0)
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
	}
	return p.check()
}

// timed regenerates back to back until budget has passed: at least once,
// and with a tracer at least twice, so that one regeneration of each kind
// is timed.
func (p *paper) timed(ctx context.Context, budget time.Duration, tr *tracer) (*measured, error) {
	m := &measured{}
	least := 1
	if tr != nil {
		least = 2
	}
	start := time.Now()
	for m.attempted < least || time.Since(start) < budget {
		traced := traceOp(tr, m.attempted)
		var t *tracer
		if traced {
			t = tr
		}
		t0 := time.Now()
		err := p.regenerate(ctx, t, uint64(m.attempted+1))
		d := time.Since(t0)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		m.attempted++
		if err != nil {
			m.fail("regeneration %d: %v", m.attempted, err)
			continue
		}
		m.ops = append(m.ops, op{submit: d, e2e: d, traced: traced})
	}
	m.wall = time.Since(start)
	return m, nil
}

func runPaper(ctx context.Context, o options) (*measured, error) {
	var p *paper
	var setups []time.Duration
	for range paperSetups {
		t0 := time.Now()
		np, err := newPaper(o.seed, o.goldenDir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		p = np
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	m, err := p.timed(ctx, o.seconds, tr)
	if err != nil {
		return nil, err
	}
	m.setups = setups
	if tr != nil {
		m.spans = tr
		m.layers = paperLayers(tr.all())
		m.setOverhead(mean, true)
	}
	return m, nil
}

// paperLayers averages each artefact's self time and allocation count over
// the traced regenerations.
func paperLayers(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	n := 0
	for _, s := range spans {
		if s.Name == "paper" {
			n++
		}
	}
	if n == 0 {
		return out
	}
	for _, s := range spans {
		name, ok := strings.CutPrefix(s.Name, "paper.")
		if !ok {
			continue
		}
		sec := self[s.ID].Seconds() / float64(n)
		if paperOther[name] {
			out["paper.other_s"] += sec
			continue
		}
		out["paper."+name+"_s"] += sec
		out["paper."+name+"_allocs"] += float64(s.Allocs) / float64(n)
	}
	return out
}
