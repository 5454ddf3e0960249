package experiments

import (
	"encoding/csv"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// Table is one printable experiment result: title lines, a column
// header, one row per measurement, and note lines after the rows. The
// same table renders as aligned text (Text) and as plot-ready CSV
// (CSV).
type Table struct {
	Title   string // lines printed before the header, without a trailing newline
	Columns []Column
	Rows    [][]any // one cell per column
	// CSVRows, when set, replace Rows in the CSV rendering: a finer
	// sampling of the same curve than the text table shows.
	CSVRows [][]any
	Notes   []string // lines printed after the rows
}

// Column is one field of a Table. A column without a Text verb is left
// out of the text rendering, one without a CSV verb out of the CSV.
type Column struct {
	Head string // text header, aligned like the Text verb
	Text string // fmt verb for a text cell, e.g. "%8.3fx"
	Name string // CSV header
	CSV  string // fmt verb for a CSV cell, e.g. "%.4f"
}

// Text renders the table aligned for a terminal. The header line is
// printed only when some text column has a Head.
func (t Table) Text() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	var cols []int
	var head []string
	named := false
	for i, c := range t.Columns {
		if c.Text == "" {
			continue
		}
		cols = append(cols, i)
		w := width(c.Text)
		if strings.HasPrefix(c.Text, "%-") {
			w = -w
		}
		head = append(head, fmt.Sprintf("%*s", w, c.Head))
		named = named || c.Head != ""
	}
	if named {
		b.WriteString(strings.Join(head, " "))
		b.WriteByte('\n')
	}
	for _, row := range t.Rows {
		for k, i := range cols {
			if k > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, t.Columns[i].Text, row[i])
		}
		if len(cols) > 0 {
			b.WriteByte('\n')
		}
	}
	for _, n := range t.Notes {
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table's columns and rows as comma-separated records
// under a header record; title and notes are left out.
func (t Table) CSV() string {
	var cols []int
	var head []string
	for i, c := range t.Columns {
		if c.CSV != "" {
			cols = append(cols, i)
			head = append(head, c.Name)
		}
	}
	rows := t.Rows
	if t.CSVRows != nil {
		rows = t.CSVRows
	}
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.Write(head)
	for _, row := range rows {
		rec := make([]string, len(cols))
		for k, i := range cols {
			rec[k] = fmt.Sprintf(t.Columns[i].CSV, row[i])
		}
		w.Write(rec)
	}
	w.Flush()
	return b.String()
}

var verb = regexp.MustCompile(`%%|%[-+# 0]*(\d*)(?:\.\d+)?[a-zA-Z]`)

// width is the least printed width of a cell printed with format: its
// field widths plus the literal text around them ("%8.3fx" is 9 wide).
func width(format string) int {
	n := len(format)
	for _, m := range verb.FindAllStringSubmatchIndex(format, -1) {
		n -= m[1] - m[0]
		if m[2] < 0 { // "%%" prints one byte
			n++
			continue
		}
		w, _ := strconv.Atoi(format[m[2]:m[3]])
		n += w
	}
	return n
}

// tableOf builds a table with one row per result, its cells from cells.
func tableOf[R any](title string, cols []Column, rows []R, cells func(R) []any) Table {
	t := Table{Title: title, Columns: cols}
	for _, r := range rows {
		t.Rows = append(t.Rows, cells(r))
	}
	return t
}
