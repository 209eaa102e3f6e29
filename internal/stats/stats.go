// Package stats provides the small statistics and reporting toolkit the
// experiment harness uses: geometric means for the figures' GM bars, labeled
// time series for the behaviour graphs, aligned text tables, and a terminal
// line chart.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean, the aggregate the paper's figures use.
// Non-positive inputs yield NaN; empty input yields 0.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Series is a labeled (x, y) sequence, one curve of a behaviour graph.
type Series struct {
	Name string
	X, Y []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Table is an aligned text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
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
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// F formats a float with the given precision, the table cell helper.
func F(v float64, prec int) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.*f", prec, v)
}

// Chart renders series as a fixed-size ASCII line chart, the terminal
// rendering of the paper's behaviour graphs. All series share the axes;
// each is drawn with its own rune.
func Chart(title string, series []*Series, width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	var xlo, xhi, ylo, yhi float64
	first := true
	for _, s := range series {
		for i := range s.X {
			if first {
				xlo, xhi, ylo, yhi = s.X[i], s.X[i], s.Y[i], s.Y[i]
				first = false
				continue
			}
			xlo = math.Min(xlo, s.X[i])
			xhi = math.Max(xhi, s.X[i])
			ylo = math.Min(ylo, s.Y[i])
			yhi = math.Max(yhi, s.Y[i])
		}
	}
	if first {
		return title + " (no data)\n"
	}
	if xhi == xlo {
		xhi = xlo + 1
	}
	if yhi == ylo {
		yhi = ylo + 1
	}
	marks := []rune("*o+x#@%&")
	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", width))
	}
	for si, s := range series {
		mark := marks[si%len(marks)]
		for i := range s.X {
			c := int((s.X[i] - xlo) / (xhi - xlo) * float64(width-1))
			r := height - 1 - int((s.Y[i]-ylo)/(yhi-ylo)*float64(height-1))
			grid[r][c] = mark
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  [y: %.3g..%.3g, x: %.3g..%.3g]\n", title, ylo, yhi, xlo, xhi)
	for _, row := range grid {
		b.WriteString("| ")
		b.WriteString(string(row))
		b.WriteByte('\n')
	}
	b.WriteString("  legend:")
	for si, s := range series {
		fmt.Fprintf(&b, " %c=%s", marks[si%len(marks)], s.Name)
	}
	b.WriteByte('\n')
	return b.String()
}
