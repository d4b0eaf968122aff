// Package stats provides the typed metrics registry (registry.go),
// streaming distributions, and table formatting for experiment reports.
// Experiment drivers print rows in the same form as the paper's figures;
// stats keeps that formatting in one place.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Dist is a streaming distribution: count, sum, min, max, plus Welford's
// online algorithm for numerically stable variance.
type Dist struct {
	N        uint64
	Sum      float64
	Min, Max float64

	// Welford state: running mean and sum of squared deviations.
	mean, m2 float64
}

// Observe adds one sample.
func (d *Dist) Observe(v float64) {
	if d.N == 0 || v < d.Min {
		d.Min = v
	}
	if d.N == 0 || v > d.Max {
		d.Max = v
	}
	d.N++
	d.Sum += v
	delta := v - d.mean
	d.mean += delta / float64(d.N)
	d.m2 += delta * (v - d.mean)
}

// Mean returns the sample mean (0 for an empty distribution).
func (d *Dist) Mean() float64 {
	if d.N == 0 {
		return 0
	}
	return d.Sum / float64(d.N)
}

// Var returns the population variance (0 for fewer than two samples).
func (d *Dist) Var() float64 {
	if d.N < 2 {
		return 0
	}
	return d.m2 / float64(d.N)
}

// Stddev returns the population standard deviation.
func (d *Dist) Stddev() float64 {
	return math.Sqrt(d.Var())
}

// Table accumulates rows and renders them with aligned columns, matching
// the row/series style of the paper's figures.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are kept as-is.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// AddRowf appends a row formatting each value with %v, floats with 3
// significant decimals.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.AddRow(row...)
}

// Rows returns the accumulated rows.
func (t *Table) Rows() [][]string { return t.rows }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			for i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Ratio returns a/b, or 0 when b is 0: experiment code divides event
// counts that may legitimately be zero at tiny scales.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// SortedKeys returns map keys in sorted order, for deterministic reports.
func SortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
