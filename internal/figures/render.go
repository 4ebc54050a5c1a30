package figures

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"unicode/utf8"
)

// Col is one value column of a Table: its heading and the fmt verb that
// prints one of its values (e.g. "%.2f", "%.1f%%").
type Col struct {
	Name   string
	Format string
}

// Row is one labeled line of a Table, one value per column. A NaN value
// was not measured: an infeasible design point, or a ratio whose
// denominator is zero. Paper, when set, holds the paper's reference
// value for each column, NaN where the paper gives none.
type Row struct {
	Label string
	Vals  []float64
	Paper []float64
}

// Table is the typed result of one experiment. Key heads the label
// column. Parts are sections with columns of their own, printed after
// this table's rows and notes.
type Table struct {
	Title string
	Key   string
	Cols  []Col
	Rows  []Row
	Notes []string
	Parts []*Table
}

// none marks a cell with no value: not measured, or not given by the
// paper.
var none = math.NaN()

// cols gives each named column the same format.
func cols(format string, names ...string) []Col {
	cs := make([]Col, len(names))
	for i, n := range names {
		cs[i] = Col{n, format}
	}
	return cs
}

// add appends a row of measured values.
func (t *Table) add(label string, vals ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Vals: vals})
}

// Get returns the measured value in the row labeled label and the
// column named col, or NaN when the table has no such cell.
func (t *Table) Get(label, col string) float64 {
	for _, r := range t.Rows {
		for i, c := range t.Cols {
			if r.Label == label && c.Name == col && i < len(r.Vals) {
				return r.Vals[i]
			}
		}
	}
	return none
}

// Render prints t and its parts as aligned text. Every column is as wide
// as its widest cell; labels are left-aligned and values right-aligned.
// A value that was not measured prints as "-", and a row's reference
// values print on a "(paper)" line below it.
func Render(w io.Writer, t *Table) error {
	var b bytes.Buffer
	render(&b, t)
	_, err := w.Write(b.Bytes())
	return err
}

func render(b *bytes.Buffer, t *Table) {
	fmt.Fprintln(b, t.Title)
	if len(t.Rows) > 0 {
		lines := [][]string{{t.Key}}
		for _, c := range t.Cols {
			lines[0] = append(lines[0], c.Name)
		}
		for _, r := range t.Rows {
			lines = append(lines, cells(r.Label, t.Cols, r.Vals, "-"))
			if r.Paper != nil {
				lines = append(lines, cells("(paper)", t.Cols, r.Paper, ""))
			}
		}
		widths := make([]int, len(lines[0]))
		for _, l := range lines {
			for i, c := range l {
				widths[i] = max(widths[i], utf8.RuneCountInString(c))
			}
		}
		for _, l := range lines {
			line := fmt.Sprintf("%-*s", widths[0], l[0])
			for i := 1; i < len(l); i++ {
				line += fmt.Sprintf("  %*s", widths[i], l[i])
			}
			fmt.Fprintln(b, strings.TrimRight(line, " "))
		}
	}
	for _, n := range t.Notes {
		fmt.Fprintln(b, n)
	}
	for _, p := range t.Parts {
		fmt.Fprintln(b)
		render(b, p)
	}
}

// cells formats one line: the label, then each value in its column's
// format, with missing for a NaN.
func cells(label string, cols []Col, vals []float64, missing string) []string {
	line := []string{label}
	for i, c := range cols {
		if i < len(vals) && !math.IsNaN(vals[i]) {
			line = append(line, fmt.Sprintf(c.Format, vals[i]))
		} else {
			line = append(line, missing)
		}
	}
	return line
}
