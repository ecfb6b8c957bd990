// Package core keeps the old names of the paper's evaluation for the
// perfbench module, which imports them. Tables I–IV, Table IV's rows and
// cells, and the Section VI conclusions live on figures.Pair; everything
// here is an alias of, or a one-line forward to, package figures. New
// code uses figures directly.
package core

import (
	"clustereval/internal/figures"
	"clustereval/internal/report"
)

type (
	// Evaluation is the CTE-Arm / MareNostrum 4 pair.
	Evaluation = figures.Pair
	// Row is one Table IV application row.
	Row = figures.Row
	// Cell is one Table IV entry.
	Cell = figures.Cell
	// Finding is one Section VI conclusion, checked against the models.
	Finding = figures.Finding
)

// New returns the paper's evaluation: CTE-Arm vs MareNostrum 4.
func New() *Evaluation {
	p := figures.Default()
	return &p
}

// RenderTableIV formats the rows as the paper's Table IV.
func RenderTableIV(rows []Row) *report.Table { return figures.RenderTableIV(rows) }

// TableIVNodes are the columns of Table IV.
func TableIVNodes() []int { return figures.TableIVNodes() }
