// Package stats implements the paper's measurement arithmetic — most
// importantly the "scaled, relative difference" ds = (a-z)/z of §IV-B2 —
// plus the fixed-grid table rendering used to reproduce the paper's
// figure matrices.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// ScaledRelDiff returns the paper's ds = (a - z) / z: positive when the
// array-order measurement a exceeds the Z-order measurement z (i.e. the
// Z-order code is winning), negative when array order wins. Returns NaN
// if z is zero.
func ScaledRelDiff(a, z float64) float64 {
	if z == 0 {
		return math.NaN()
	}
	return (a - z) / z
}

// Table is a labeled 2-D grid of measurements, mirroring the paper's
// figure matrices (rows = test configurations, columns = thread counts).
type Table struct {
	Title     string
	RowLabels []string
	ColLabels []string
	Cells     [][]float64 // Cells[row][col]
	// Format is the fmt verb for cells; default "%8.2f".
	Format string
}

// NewTable allocates a table with the given labels and NaN-filled cells.
func NewTable(title string, rows, cols []string) *Table {
	t := &Table{Title: title, RowLabels: rows, ColLabels: cols}
	t.Cells = make([][]float64, len(rows))
	for r := range t.Cells {
		t.Cells[r] = make([]float64, len(cols))
		for c := range t.Cells[r] {
			t.Cells[r][c] = math.NaN()
		}
	}
	return t
}

// Set stores v at (row, col).
func (t *Table) Set(row, col int, v float64) { t.Cells[row][col] = v }

// At returns the cell at (row, col).
func (t *Table) At(row, col int) float64 { return t.Cells[row][col] }

// String renders the table as fixed-width text. Every cell is rendered
// first and the column width taken from the widest rendered cell or
// header — not from a sample value pushed through Format, which
// under-sized the columns (and broke alignment) whenever a real value
// overflowed the verb's minimum width.
func (t *Table) String() string {
	format := t.Format
	if format == "" {
		format = "%8.2f"
	}
	labelW := 0
	for _, r := range t.RowLabels {
		if len(r) > labelW {
			labelW = len(r)
		}
	}
	cells := make([][]string, len(t.RowLabels))
	cellW := 1 // the "-" placeholder for NaN cells
	for _, c := range t.ColLabels {
		if len(c) > cellW {
			cellW = len(c)
		}
	}
	for r := range t.RowLabels {
		cells[r] = make([]string, len(t.ColLabels))
		for c := range t.ColLabels {
			v := t.Cells[r][c]
			s := "-"
			if !math.IsNaN(v) {
				s = fmt.Sprintf(format, v)
			}
			cells[r][c] = s
			if len(s) > cellW {
				cellW = len(s)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	fmt.Fprintf(&b, "%-*s", labelW, "")
	for _, c := range t.ColLabels {
		fmt.Fprintf(&b, " %*s", cellW, c)
	}
	b.WriteByte('\n')
	for r, label := range t.RowLabels {
		fmt.Fprintf(&b, "%-*s", labelW, label)
		for c := range t.ColLabels {
			fmt.Fprintf(&b, " %*s", cellW, cells[r][c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("row")
	for _, c := range t.ColLabels {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for r, label := range t.RowLabels {
		b.WriteString(label)
		for c := range t.ColLabels {
			v := t.Cells[r][c]
			if math.IsNaN(v) {
				b.WriteString(",")
			} else {
				fmt.Fprintf(&b, ",%g", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Series is a labeled 1-D sequence, used for the paper's line plots
// (Fig. 4: absolute runtime and counter values vs viewpoint).
type Series struct {
	Name   string
	Labels []string
	Values []float64
}

// RenderSeries renders aligned columns for several series sharing
// labels: one row per label, one column per series.
func RenderSeries(title string, series ...Series) string {
	if len(series) == 0 {
		return title + "\n"
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	labelW := 0
	for _, l := range series[0].Labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	fmt.Fprintf(&b, "%-*s", labelW, "")
	for _, s := range series {
		fmt.Fprintf(&b, " %14s", s.Name)
	}
	b.WriteByte('\n')
	for i, l := range series[0].Labels {
		fmt.Fprintf(&b, "%-*s", labelW, l)
		for _, s := range series {
			if i < len(s.Values) {
				fmt.Fprintf(&b, " %14.4g", s.Values[i])
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
