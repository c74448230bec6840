// Package stats provides the table formatting shared by the cmd tools
// that regenerate the paper's figures, and the order statistics the
// committed benchmark summarises its rounds with.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Sample is a set of repeated measurements of one configuration.
type Sample struct {
	Values []float64
}

// Min returns the smallest measurement (best-of-N, as the paper's
// microbenchmarks report), or NaN if empty.
func (s *Sample) Min() float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest measurement, or NaN if empty.
func (s *Sample) Max() float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation, or NaN if empty. It sorts a copy per call and leaves
// Values in the caller's order.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), s.Values...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Series is a named sequence of (x, y) points, e.g. one line on a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// YAt returns the y value for the given x, or NaN if absent.
func (s *Series) YAt(x float64) float64 {
	for i, xv := range s.X {
		if xv == x {
			return s.Y[i]
		}
	}
	return math.NaN()
}

// Table renders a set of series sharing an x axis as an aligned text table,
// mirroring one figure from the paper.
type Table struct {
	Title  string
	XLabel string
	XFmt   func(float64) string // defaults to %g
	YFmt   func(float64) string // defaults to %.4g
	Series []*Series
}

// Fprint writes the table to w.
func (t *Table) Fprint(w io.Writer) {
	xfmt := t.XFmt
	if xfmt == nil {
		xfmt = func(v float64) string { return fmt.Sprintf("%g", v) }
	}
	yfmt := t.YFmt
	if yfmt == nil {
		yfmt = func(v float64) string { return fmt.Sprintf("%.4g", v) }
	}
	// Collect the union of x values in first-seen order.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range t.Series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	header := append([]string{t.XLabel}, func() []string {
		names := make([]string, len(t.Series))
		for i, s := range t.Series {
			names[i] = s.Name
		}
		return names
	}()...)
	rows := [][]string{header}
	for _, x := range xs {
		row := []string{xfmt(x)}
		for _, s := range t.Series {
			y := s.YAt(x)
			if math.IsNaN(y) {
				row = append(row, "-")
			} else {
				row = append(row, yfmt(y))
			}
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	for ri, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(cell, widths[i]))
		}
		fmt.Fprintln(w, b.String())
		if ri == 0 {
			fmt.Fprintln(w, strings.Repeat("-", lineWidth(widths)))
		}
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func lineWidth(widths []int) int {
	total := 0
	for _, w := range widths {
		total += w
	}
	return total + 2*(len(widths)-1)
}

// BytesHuman formats a byte count with binary units (8B, 4KB, 2MB, 1GB).
func BytesHuman(n int) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
