// Package report renders experiment results as aligned text, CSV, or JSON.
// The eval harness builds Tables; cmd/elfbench selects the rendering, so
// the same figure data feeds terminals, spreadsheets, and scripts.
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is one titled, column-labelled result grid. The json tags are the
// wire shape shared by WriteJSON and embedders (elfd's figure payloads).
type Table struct {
	Title   string     `json:"title,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// Notes render after the grid (methodology, caveats).
	Notes []string `json:"notes,omitempty"`
}

// New returns an empty table.
func New(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Add appends one row; the cell count must match the columns.
func (t *Table) Add(cells ...string) *Table {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("report: row has %d cells, table has %d columns", len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
	return t
}

// Note appends a trailing note line.
func (t *Table) Note(s string) *Table {
	t.Notes = append(t.Notes, s)
	return t
}

// WriteText renders an aligned, human-readable grid.
func (t *Table) WriteText(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintln(w, t.Title); err != nil {
			return err
		}
	}
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
	writeRow := func(cells []string) error {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i == 0 {
				sb.WriteString(pad(cell, widths[i], false))
			} else {
				sb.WriteString(pad(cell, widths[i], true))
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
		return err
	}
	if err := writeRow(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintln(w, n); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int, right bool) string {
	if len(s) >= w {
		return s
	}
	sp := strings.Repeat(" ", w-len(s))
	if right {
		return sp + s
	}
	return s + sp
}

// WriteCSV renders RFC-4180 CSV (title and notes as comment-ish rows are
// omitted; columns first).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON renders the table as a single JSON object.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// Format names a rendering.
type Format string

// Supported formats.
const (
	Text Format = "text"
	CSV  Format = "csv"
	JSON Format = "json"
)

// ParseFormat parses a format name ("text", "csv", "json"), rejecting
// anything else — CLIs and servers should fail loudly on a typoed format
// rather than silently fall back to text.
func ParseFormat(s string) (Format, error) {
	switch f := Format(strings.ToLower(strings.TrimSpace(s))); f {
	case Text, CSV, JSON:
		return f, nil
	case "":
		return Text, nil
	default:
		return "", fmt.Errorf("report: unknown format %q (want text, csv or json)", s)
	}
}

// Write renders in the named format.
func (t *Table) Write(w io.Writer, f Format) error {
	switch f {
	case CSV:
		return t.WriteCSV(w)
	case JSON:
		return t.WriteJSON(w)
	default:
		return t.WriteText(w)
	}
}

// F formats a float with 3 decimals (the relative-IPC house style).
func F(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

// F1 formats a float with 1 decimal (MPKI, averages).
func F1(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }

// Pct formats a fraction as a percentage with 1 decimal.
func Pct(v float64) string { return strconv.FormatFloat(100*v, 'f', 1, 64) + "%" }

// I formats an integer.
func I[T ~int | ~int64 | ~uint64](v T) string { return fmt.Sprintf("%d", v) }
