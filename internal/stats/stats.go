// Package stats provides the small reporting toolkit the experiment
// harness uses: aligned text tables with optional paper-reference columns,
// CSV export and log-log ASCII charts for the figures.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float compactly: 3 significant decimals for small
// magnitudes, 1 for large.
func FormatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Render draws the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV exports the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cells := make([]string, len(t.Headers))
	for i, h := range t.Headers {
		cells[i] = esc(h)
	}
	b.WriteString(strings.Join(cells, ",") + "\n")
	for _, r := range t.Rows {
		cells = cells[:0]
		for _, c := range r {
			cells = append(cells, esc(c))
		}
		b.WriteString(strings.Join(cells, ",") + "\n")
	}
	return b.String()
}

// Series is one named line on a chart.
type Series struct {
	Name   string
	Marker byte
	X, Y   []float64
}

// Chart is a log-log ASCII scatter chart, the stand-in for the paper's
// figures.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	LogX   bool
	LogY   bool
}

// Render draws the chart into a width x height character grid.
func (c *Chart) Render(width, height int) string {
	if width < 20 {
		width = 64
	}
	if height < 6 {
		height = 18
	}
	xMin, xMax := math.Inf(1), math.Inf(-1)
	yMin, yMax := math.Inf(1), math.Inf(-1)
	tx := func(v float64) float64 {
		if c.LogX {
			return math.Log10(v)
		}
		return v
	}
	ty := func(v float64) float64 {
		if c.LogY {
			return math.Log10(v)
		}
		return v
	}
	for _, s := range c.Series {
		for i := range s.X {
			if s.X[i] <= 0 && c.LogX || s.Y[i] <= 0 && c.LogY {
				continue
			}
			xMin = math.Min(xMin, tx(s.X[i]))
			xMax = math.Max(xMax, tx(s.X[i]))
			yMin = math.Min(yMin, ty(s.Y[i]))
			yMax = math.Max(yMax, ty(s.Y[i]))
		}
	}
	if math.IsInf(xMin, 1) {
		return c.Title + " (no data)\n"
	}
	if xMax == xMin {
		xMax = xMin + 1
	}
	if yMax == yMin {
		yMax = yMin + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for _, s := range c.Series {
		for i := range s.X {
			if (s.X[i] <= 0 && c.LogX) || (s.Y[i] <= 0 && c.LogY) {
				continue
			}
			x := int((tx(s.X[i]) - xMin) / (xMax - xMin) * float64(width-1))
			y := int((ty(s.Y[i]) - yMin) / (yMax - yMin) * float64(height-1))
			grid[height-1-y][x] = s.Marker
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", c.Title)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", width) + "> " + c.XLabel + "\n")
	for _, s := range c.Series {
		fmt.Fprintf(&b, "  %c = %s\n", s.Marker, s.Name)
	}
	if c.YLabel != "" {
		fmt.Fprintf(&b, "  y: %s\n", c.YLabel)
	}
	return b.String()
}
