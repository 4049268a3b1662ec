// Package exp contains one driver per table and figure of the paper's
// evaluation (Section 5). Each driver assembles the stacks, runs the
// workload of Table 2 (scaled down so it completes in seconds), and
// returns a Table with the same rows/series the paper reports, plus the
// key ratios EXPERIMENTS.md compares against the published shape.
package exp

import (
	"fmt"
	"strings"
)

// Options tune every experiment driver.
type Options struct {
	// Scale multiplies workload sizes; 1.0 is the default documented in
	// EXPERIMENTS.md, smaller values give quick smoke runs (tests use
	// 0.1–0.25).
	Scale float64
	// Seed feeds every generator for reproducibility.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	return o
}

// scaled returns n*Scale, at least min.
func (o Options) scaled(n int, min int) int {
	v := int(float64(n) * o.Scale)
	if v < min {
		v = min
	}
	return v
}

// Table is a printable result table.
type Table struct {
	Title string
	Note  string
	Cols  []string
	Rows  [][]string
	// Metrics holds the figure's headline quantities in machine-readable
	// form (ops/s, simulated ns/op, hit rates, ...) for the figure-gate
	// tests; nil when a driver sets none.
	Metrics map[string]float64
}

// SetMetric records one machine-readable headline quantity.
func (t *Table) SetMetric(name string, v float64) {
	if t.Metrics == nil {
		t.Metrics = make(map[string]float64)
	}
	t.Metrics[name] = v
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, cols ...string) *Table {
	return &Table{Title: title, Cols: cols}
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		case int:
			row[i] = fmt.Sprintf("%d", v)
		case int64:
			row[i] = fmt.Sprintf("%d", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for i, c := range t.Cols {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range t.Cols {
		fmt.Fprintf(&b, "%s  ", strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				fmt.Fprintf(&b, "%s  ", c)
			}
		}
		b.WriteByte('\n')
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	for i, c := range t.Cols {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(esc(c))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, c := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Cell returns row r, column named col (for assertions in tests).
func (t *Table) Cell(r int, col string) string {
	for i, c := range t.Cols {
		if c == col {
			return t.Rows[r][i]
		}
	}
	panic("exp: no column " + col)
}
