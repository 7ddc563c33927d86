package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is one regenerated figure or table: what a generator returns,
// the tests read and Print writes.
type Table struct {
	Heading []string // printed as "# " lines above the column header
	Columns []Column
	Rows    []Row
}

// Column is one column's header and printed width (negative = left-aligned).
type Column struct {
	Name  string
	Width int
}

// Row is one printed line, under a "-- Section --" line when the
// section changes. It has one cell per column.
type Row struct {
	Section string
	Cells   []Cell
}

// Cell is one printed value. V is the full-precision number a numeric
// cell shows (0 for text). Timing marks a value that depends on the wall
// clock: a duration, a speedup, or the result of a search its time
// budget cut.
type Cell struct {
	Text   string
	V      float64
	Timing bool
}

// Print writes the heading, the column header and the rows, each cell
// padded to its column's width and one space from the next.
func (t *Table) Print(w io.Writer) {
	for _, h := range t.Heading {
		fmt.Fprintln(w, "# "+h)
	}
	line := func(text func(i int) string) {
		var l strings.Builder
		for i, c := range t.Columns {
			fmt.Fprintf(&l, " %*s", c.Width, text(i))
		}
		fmt.Fprintln(w, strings.TrimRight(l.String()[1:], " "))
	}
	line(func(i int) string { return t.Columns[i].Name })
	section := ""
	for _, r := range t.Rows {
		if r.Section != section {
			section = r.Section
			fmt.Fprintln(w, "-- "+section+" --")
		}
		line(func(i int) string { return r.Cells[i].Text })
	}
}

// add appends a row of cells under section.
func (t *Table) add(section string, cells ...Cell) {
	t.Rows = append(t.Rows, Row{Section: section, Cells: cells})
}

// text is a cell that prints s; num one that prints v in format f; count
// one that prints an integer.
func text(s string) Cell           { return Cell{Text: s} }
func num(f string, v float64) Cell { return Cell{Text: fmt.Sprintf(f, v), V: v} }
func count(n int) Cell             { return Cell{Text: fmt.Sprint(n), V: float64(n)} }
