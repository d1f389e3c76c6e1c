// Package stats provides the small numeric and formatting helpers the
// experiment harness uses to turn simulation results into the rows and
// series the paper's figures report.
package stats

import (
	"fmt"
	"strings"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Table accumulates rows and renders them as aligned text or CSV. The
// experiment harness emits one Table per paper figure.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; it must match the column count.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("stats: row has %d cells for %d columns", len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// MeanTable renders a table in which every cell is the mean of the
// values cell(row, col) returns, printed by format(col, mean). header
// names the label column and then each data column; rows labels the
// rows. With average set, a trailing "average" column holds the mean
// of each row's cell means, printed by format(len(header)-1, mean).
// The mean of one value is that value exactly, so a table of single
// values prints them unchanged.
func MeanTable(title string, header, rows []string, cell func(row, col int) []float64,
	format func(col int, v float64) string, average bool) *Table {
	cols := len(header) - 1
	if average {
		header = append(header[:len(header):len(header)], "average")
	}
	t := NewTable(title, header...)
	for i, label := range rows {
		cells := []string{label}
		means := make([]float64, cols)
		for c := range means {
			means[c] = Mean(cell(i, c))
			cells = append(cells, format(c, means[c]))
		}
		if average {
			cells = append(cells, format(cols, Mean(means)))
		}
		t.AddRow(cells...)
	}
	return t
}

// String renders the table as aligned monospace text.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header line.
// Cells containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
			}
			b.WriteString(cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// Pct formats a fraction as a percentage string like "+8.3%" or "61.2%".
func Pct(v float64, signed bool) string {
	if signed {
		return fmt.Sprintf("%+.1f%%", 100*v)
	}
	return fmt.Sprintf("%.1f%%", 100*v)
}
